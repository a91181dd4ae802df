#include "core/compute_packets.hpp"

#include <stdexcept>

namespace onfiber::core {

namespace {

/// Common packet assembly: input bytes followed by a zeroed result region.
[[nodiscard]] net::packet assemble(net::ipv4 src, net::ipv4 dst,
                                   proto::primitive_id prim,
                                   std::vector<std::uint8_t> input,
                                   std::size_t result_bytes,
                                   std::uint32_t task_id,
                                   std::uint8_t encoding_flag) {
  net::packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.payload = std::move(input);
  const auto input_len = static_cast<std::uint16_t>(pkt.payload.size());
  pkt.payload.insert(pkt.payload.end(), result_bytes, 0);

  proto::compute_header h;
  h.primitive = prim;
  h.task_id = task_id;
  h.input_offset = 0;
  h.input_length = input_len;
  h.result_offset = input_len;
  h.result_length = static_cast<std::uint16_t>(result_bytes);
  h.flags = proto::flag_require_compute | encoding_flag;
  proto::attach_compute_header(pkt, h);
  pkt.flow_hash = net::flow_hash_of(src, dst, 7000, 7001,
                                    static_cast<std::uint8_t>(pkt.proto));
  return pkt;
}

/// Header + result view of a completed compute packet.
[[nodiscard]] std::optional<
    std::pair<proto::compute_header, std::span<const std::uint8_t>>>
completed_result(const net::packet& pkt) {
  const auto h = proto::peek_compute_header(pkt);
  if (!h || !h->has_result()) return std::nullopt;
  const std::size_t begin = proto::compute_header_bytes + h->result_offset;
  if (begin + h->result_length > pkt.payload.size() || h->result_length == 0) {
    return std::nullopt;
  }
  return std::make_pair(
      *h, std::span<const std::uint8_t>(pkt.payload)
              .subspan(begin, h->result_length));
}

}  // namespace

net::packet make_gemv_request(net::ipv4 src, net::ipv4 dst,
                              std::span<const double> x, std::size_t out_dim,
                              std::uint32_t task_id) {
  return assemble(src, dst, proto::primitive_id::p1_dot_product,
                  proto::encode_signed_vector(x), out_dim, task_id,
                  proto::flag_intensity_encoded);
}

net::packet make_match_request(net::ipv4 src, net::ipv4 dst,
                               std::span<const std::uint8_t> data,
                               std::uint32_t task_id) {
  return assemble(src, dst, proto::primitive_id::p2_pattern_match,
                  std::vector<std::uint8_t>(data.begin(), data.end()), 1,
                  task_id, proto::flag_phase_encoded);
}

net::packet make_nonlinear_request(net::ipv4 src, net::ipv4 dst,
                                   std::span<const double> x,
                                   std::uint32_t task_id) {
  return assemble(src, dst, proto::primitive_id::p3_nonlinear,
                  proto::encode_unit_vector(x), x.size(), task_id,
                  proto::flag_intensity_encoded);
}

net::packet make_dnn_request(net::ipv4 src, net::ipv4 dst,
                             std::span<const double> x, std::size_t out_dim,
                             std::uint32_t task_id) {
  return assemble(src, dst, proto::primitive_id::p1_p3_dnn,
                  proto::encode_unit_vector(x), 1 + out_dim, task_id,
                  proto::flag_intensity_encoded);
}

net::packet make_dnn_batch_request(net::ipv4 src, net::ipv4 dst,
                                   std::span<const double> samples,
                                   std::size_t in_dim, std::size_t out_dim,
                                   std::uint32_t task_id) {
  if (in_dim == 0 || samples.size() % in_dim != 0 || samples.empty()) {
    throw std::invalid_argument(
        "make_dnn_batch_request: samples must be batch x in_dim");
  }
  const std::size_t batch = samples.size() / in_dim;
  if (batch > 255) {
    throw std::invalid_argument("make_dnn_batch_request: batch > 255");
  }
  net::packet pkt = assemble(src, dst, proto::primitive_id::p1_p3_dnn,
                             proto::encode_unit_vector(samples),
                             (1 + out_dim) * batch, task_id,
                             proto::flag_intensity_encoded);
  auto h = proto::peek_compute_header(pkt);
  h->batch = static_cast<std::uint8_t>(batch);
  rewrite_compute_header(pkt, *h);
  return pkt;
}

net::packet make_chain_request(net::ipv4 src, net::ipv4 dst,
                               std::span<const proto::primitive_id> stages,
                               std::span<const double> x,
                               std::size_t result_capacity,
                               std::uint32_t task_id) {
  if (stages.empty() || stages.size() > 3) {
    throw std::invalid_argument(
        "make_chain_request: 1..3 stages supported");
  }
  for (const auto s : stages) {
    if (s == proto::primitive_id::none) {
      throw std::invalid_argument("make_chain_request: none stage");
    }
  }
  const bool signed_input =
      stages.front() == proto::primitive_id::p1_dot_product;
  net::packet pkt = assemble(
      src, dst, stages.front(),
      signed_input ? proto::encode_signed_vector(x)
                   : proto::encode_unit_vector(x),
      result_capacity, task_id, proto::flag_intensity_encoded);
  auto h = proto::peek_compute_header(pkt);
  h->result_length = 0;  // every engine sizes its own stage output
  if (stages.size() > 1) h->stage2 = stages[1];
  if (stages.size() > 2) h->stage3 = stages[2];
  rewrite_compute_header(pkt, *h);
  return pkt;
}

std::optional<std::vector<double>> read_gemv_result(const net::packet& pkt) {
  const auto found = completed_result(pkt);
  if (!found || found->first.primitive != proto::primitive_id::p1_dot_product) {
    return std::nullopt;
  }
  // The engine scales each sample's outputs by its per-sample input
  // length (= cols); for batched packets that is input_length / batch.
  const std::size_t batch = std::max<std::size_t>(1, found->first.batch);
  const double scale = std::max<double>(
      1.0, static_cast<double>(found->first.input_length) /
               static_cast<double>(batch));
  std::vector<double> out;
  out.reserve(found->second.size());
  for (std::uint8_t b : found->second) {
    out.push_back(proto::decode_signed_u8(b) * scale);
  }
  return out;
}

std::optional<std::uint8_t> read_match_result(const net::packet& pkt) {
  const auto found = completed_result(pkt);
  if (!found ||
      found->first.primitive != proto::primitive_id::p2_pattern_match) {
    return std::nullopt;
  }
  return found->second[0];
}

std::optional<std::vector<double>> read_nonlinear_result(
    const net::packet& pkt) {
  const auto found = completed_result(pkt);
  if (!found || found->first.primitive != proto::primitive_id::p3_nonlinear) {
    return std::nullopt;
  }
  return proto::decode_unit_vector(found->second);
}

std::optional<dnn_result> read_dnn_result(const net::packet& pkt) {
  const auto found = completed_result(pkt);
  if (!found || found->first.primitive != proto::primitive_id::p1_p3_dnn ||
      found->second.size() < 2) {
    return std::nullopt;
  }
  // For batched packets this returns the first sample's result; use
  // read_dnn_batch_result for all of them.
  const std::size_t per_sample =
      found->second.size() / std::max<std::size_t>(1, found->first.batch);
  if (per_sample < 2) return std::nullopt;
  dnn_result r;
  r.predicted_class = found->second[0];
  for (std::size_t i = 1; i < per_sample; ++i) {
    r.logits.push_back(proto::decode_signed_u8(found->second[i]));
  }
  return r;
}

std::optional<std::vector<dnn_result>> read_dnn_batch_result(
    const net::packet& pkt) {
  const auto found = completed_result(pkt);
  if (!found || found->first.primitive != proto::primitive_id::p1_p3_dnn) {
    return std::nullopt;
  }
  const std::size_t batch = std::max<std::size_t>(1, found->first.batch);
  if (found->second.size() % batch != 0) return std::nullopt;
  const std::size_t per_sample = found->second.size() / batch;
  if (per_sample < 2) return std::nullopt;
  std::vector<dnn_result> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    dnn_result r;
    r.predicted_class = found->second[b * per_sample];
    for (std::size_t i = 1; i < per_sample; ++i) {
      r.logits.push_back(
          proto::decode_signed_u8(found->second[b * per_sample + i]));
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace onfiber::core
