// onfiber.hpp — umbrella header for the on-fiber photonic computing
// library. Include this for everything, or pick the sub-headers you need:
//
//   photonics/…  physical devices and the P1/P2/P3 analog primitives
//   network/…    WAN topology, routers, discrete-event fabric
//   protocol/…   the compute-communication protocol (§3)
//   core/…       transponders, the photonic engine, the on-fiber runtime
//   controller/… the centralized controller and its service loop
//   digital/…    digital baselines (device models, DNN, matchers, cipher)
//   apps/…       the seven Table-1 use cases
#pragma once

// physical substrate
#include "photonics/area.hpp"
#include "photonics/converter.hpp"
#include "photonics/energy.hpp"
#include "photonics/fiber.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/noise.hpp"
#include "photonics/optical.hpp"
#include "photonics/passives.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/rng.hpp"
#include "photonics/units.hpp"
#include "photonics/wdm.hpp"

// photonic compute primitives (paper §2.1, Fig. 2)
#include "photonics/engine/dot_product_unit.hpp"
#include "photonics/engine/nonlinear_unit.hpp"
#include "photonics/engine/pattern_matcher.hpp"
#include "photonics/engine/vector_matrix_engine.hpp"
#include "photonics/engine/wdm_engine.hpp"

// network substrate
#include "network/address.hpp"
#include "network/event_sim.hpp"
#include "network/fabric.hpp"
#include "network/packet.hpp"
#include "network/routing.hpp"
#include "network/stats.hpp"
#include "network/topology.hpp"
#include "network/workload.hpp"

// compute-communication protocol (paper §3)
#include "protocol/codec.hpp"
#include "protocol/compute_header.hpp"
#include "protocol/compute_routing.hpp"

// the paper's contribution (Figs. 1, 3, 4)
#include "core/compute_packets.hpp"
#include "core/photonic_engine.hpp"
#include "core/runtime.hpp"
#include "core/transponder.hpp"

// centralized controller (paper §3)
#include "controller/controller.hpp"
#include "controller/rwa.hpp"
#include "controller/service.hpp"

// digital baselines
#include "digital/cipher.hpp"
#include "digital/device_model.hpp"
#include "digital/dnn.hpp"
#include "digital/pattern.hpp"

// Table-1 use cases
#include "apps/convolution.hpp"
#include "apps/encryption.hpp"
#include "apps/intrusion_detection.hpp"
#include "apps/ip_routing.hpp"
#include "apps/load_balancing.hpp"
#include "apps/mimo.hpp"
#include "apps/ml_inference.hpp"
#include "apps/photonic_cnn.hpp"
#include "apps/video_encoding.hpp"
