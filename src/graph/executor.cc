#include "src/graph/executor.h"

#include <algorithm>
#include <cmath>

#include "src/graph/registry.h"

namespace fl::graph {
namespace {

float FastTanhApprox(float x) {
  // Rational approximation (Padé-like); the point of the op is versioning,
  // but the math is a genuine cheap tanh.
  if (x > 4.97f) return 1.0f;
  if (x < -4.97f) return -1.0f;
  const float x2 = x * x;
  return x * (27.0f + x2) / (27.0f + 9.0f * x2);
}

// Softmax over rows of logits [b, n].
Tensor RowSoftmax(const Tensor& logits) {
  const std::size_t b = logits.shape()[0], n = logits.shape()[1];
  Tensor probs({b, n});
  const float* in = logits.data().data();
  float* out = probs.mutable_data().data();
  for (std::size_t i = 0; i < b; ++i, in += n, out += n) {
    float mx = -1e30f;
    for (std::size_t j = 0; j < n; ++j) mx = std::max(mx, in[j]);
    double denom = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const float e = std::exp(in[j] - mx);
      out[j] = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < n; ++j) out[j] *= inv;
  }
  return probs;
}

Status ShapeError(const Node& n, const std::string& detail) {
  return InvalidArgumentError(std::string(OpTypeName(n.op)) + " node " +
                              std::to_string(n.id) + ": " + detail);
}

}  // namespace

Status Executor::ValidateVersion(const Graph& g) const {
  for (const Node& n : g.nodes()) {
    const std::uint32_t need = MinRuntimeVersion(n.op);
    if (need > runtime_version_) {
      return FailedPreconditionError(
          std::string("op ") + OpTypeName(n.op) + " requires runtime v" +
          std::to_string(need) + " but device runs v" +
          std::to_string(runtime_version_));
    }
  }
  return Status::Ok();
}

Result<ForwardResult> Executor::Forward(const Graph& g,
                                        const Checkpoint& params,
                                        const Feeds& feeds) const {
  ForwardResult result;
  std::vector<const Tensor*> value;
  FL_RETURN_IF_ERROR(Evaluate(g, params, feeds, result, value));
  return result;
}

Status Executor::Evaluate(const Graph& g, const Checkpoint& params,
                          const Feeds& feeds, ForwardResult& result,
                          std::vector<const Tensor*>& value) const {
  FL_RETURN_IF_ERROR(ValidateVersion(g));
  result.values.resize(g.size());
  value.assign(g.size(), nullptr);

  for (const Node& n : g.nodes()) {
    auto in = [&](std::size_t i) -> const Tensor& {
      return *value[n.inputs[i]];
    };
    value[n.id] = &result.values[n.id];
    switch (n.op) {
      case OpType::kInput: {
        const auto it = feeds.find(n.name);
        if (it == feeds.end()) {
          return NotFoundError("missing feed for input '" + n.name + "'");
        }
        // Batch dimension is free; remaining dims must match declaration.
        const Tensor& t = it->second;
        if (t.rank() != n.shape.size()) {
          return ShapeError(n, "feed rank mismatch for '" + n.name + "'");
        }
        for (std::size_t d = 1; d < n.shape.size(); ++d) {
          if (n.shape[d] != 0 && t.shape()[d] != n.shape[d]) {
            return ShapeError(n, "feed dim mismatch for '" + n.name + "'");
          }
        }
        value[n.id] = &t;
        break;
      }
      case OpType::kParam: {
        FL_ASSIGN_OR_RETURN(const Tensor* p, params.Get(n.name));
        if (p->shape() != n.shape) {
          return ShapeError(n, "checkpoint shape mismatch for '" + n.name +
                                   "': " + ShapeToString(p->shape()) +
                                   " vs declared " + ShapeToString(n.shape));
        }
        value[n.id] = p;
        break;
      }
      case OpType::kMatMul:
        if (in(0).rank() != 2 || in(1).rank() != 2 ||
            in(0).shape()[1] != in(1).shape()[0]) {
          return ShapeError(n, "incompatible matmul operands");
        }
        result.values[n.id] = Tensor::MatMul(in(0), in(1));
        break;
      case OpType::kFusedMatMulBias: {
        const Tensor& x = in(0);
        const Tensor& w = in(1);
        const Tensor& b = in(2);
        if (x.rank() != 2 || w.rank() != 2 || x.shape()[1] != w.shape()[0] ||
            b.size() != w.shape()[1]) {
          return ShapeError(n, "incompatible fused matmul operands");
        }
        Tensor y = Tensor::MatMul(x, w);
        const std::size_t cols = y.shape()[1];
        float* py = y.mutable_data().data();
        const float* pb = b.data().data();
        for (std::size_t i = 0; i < y.shape()[0]; ++i, py += cols) {
          for (std::size_t j = 0; j < cols; ++j) py[j] += pb[j];
        }
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kAddBias: {
        const Tensor& x = in(0);
        const Tensor& b = in(1);
        if (x.rank() != 2 || b.size() != x.shape()[1]) {
          return ShapeError(n, "bias size must equal column count");
        }
        Tensor y = x;
        for (std::size_t i = 0; i < y.shape()[0]; ++i) {
          for (std::size_t j = 0; j < y.shape()[1]; ++j) {
            y.at(i, j) += b.at(j);
          }
        }
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kRelu: {
        Tensor y = in(0);
        for (float& v : y.mutable_data()) v = std::max(0.0f, v);
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kTanh: {
        Tensor y = in(0);
        for (float& v : y.mutable_data()) v = std::tanh(v);
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kFastTanh: {
        Tensor y = in(0);
        for (float& v : y.mutable_data()) v = FastTanhApprox(v);
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kSigmoid: {
        Tensor y = in(0);
        for (float& v : y.mutable_data()) v = 1.0f / (1.0f + std::exp(-v));
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kEmbedLookup: {
        const Tensor& ids = in(0);
        const Tensor& table = in(1);
        if (ids.rank() != 2 || table.rank() != 2) {
          return ShapeError(n, "embed lookup wants ids[b,c], table[v,d]");
        }
        const std::size_t b = ids.shape()[0], c = ids.shape()[1];
        const std::size_t v = table.shape()[0], d = table.shape()[1];
        Tensor y({b, c * d});
        float* py = y.mutable_data().data();
        for (std::size_t i = 0; i < b * c; ++i, py += d) {
          const auto id = static_cast<std::size_t>(ids.at(i));
          if (id >= v) return ShapeError(n, "embedding id out of range");
          std::copy_n(&table.data()[id * d], d, py);
        }
        result.values[n.id] = std::move(y);
        break;
      }
      case OpType::kSoftmaxXent: {
        const Tensor& logits = in(0);
        const Tensor& labels = in(1);
        if (logits.rank() != 2 || labels.rank() != 2 ||
            labels.shape()[0] != logits.shape()[0] || labels.shape()[1] != 1) {
          return ShapeError(n, "wants logits[b,n], labels[b,1]");
        }
        const std::size_t b = logits.shape()[0], cls = logits.shape()[1];
        Tensor probs = RowSoftmax(logits);
        double loss = 0;
        std::size_t correct = 0;
        const float* row = probs.data().data();
        for (std::size_t i = 0; i < b; ++i, row += cls) {
          const auto y = static_cast<std::size_t>(labels.at(i, 0));
          if (y >= cls) return ShapeError(n, "label out of range");
          loss += -std::log(std::max(1e-12f, row[y]));
          std::size_t argmax = 0;
          for (std::size_t j = 1; j < cls; ++j) {
            if (row[j] > row[argmax]) argmax = j;
          }
          if (argmax == y) ++correct;
        }
        result.loss = loss / static_cast<double>(b);
        result.accuracy = static_cast<double>(correct) / static_cast<double>(b);
        result.has_accuracy = true;
        // Node value holds the probabilities (useful for inference/eval).
        result.values[n.id] = std::move(probs);
        break;
      }
      case OpType::kMeanSquaredError: {
        const Tensor& pred = in(0);
        const Tensor& target = in(1);
        if (!pred.SameShape(target)) {
          return ShapeError(n, "pred/target shape mismatch");
        }
        double loss = 0;
        for (std::size_t i = 0; i < pred.size(); ++i) {
          const double d = pred.at(i) - target.at(i);
          loss += d * d;
        }
        result.loss = loss / static_cast<double>(pred.size());
        result.values[n.id] = Tensor::FromVector(
            {static_cast<float>(result.loss)});
        break;
      }
      case OpType::kBinaryXent: {
        const Tensor& prob = in(0);
        const Tensor& label = in(1);
        if (!prob.SameShape(label)) {
          return ShapeError(n, "prob/label shape mismatch");
        }
        double loss = 0;
        std::size_t correct = 0;
        for (std::size_t i = 0; i < prob.size(); ++i) {
          const float p = std::clamp(prob.at(i), 1e-7f, 1.0f - 1e-7f);
          const float y = label.at(i);
          loss += -(y * std::log(p) + (1.0f - y) * std::log(1.0f - p));
          if ((p >= 0.5f) == (y >= 0.5f)) ++correct;
        }
        result.loss = loss / static_cast<double>(prob.size());
        result.accuracy =
            static_cast<double>(correct) / static_cast<double>(prob.size());
        result.has_accuracy = true;
        result.values[n.id] = Tensor::FromVector(
            {static_cast<float>(result.loss)});
        break;
      }
    }
  }
  return Status::Ok();
}

Result<Gradients> Executor::Backward(const Graph& g, const Checkpoint& params,
                                     const Feeds& feeds,
                                     ForwardResult* forward_out) const {
  ForwardResult fwd;
  std::vector<const Tensor*> value;
  FL_RETURN_IF_ERROR(Evaluate(g, params, feeds, fwd, value));

  // Only nodes downstream of a parameter carry a gradient that can reach
  // one; the rest (inputs, and ops over inputs alone) get none.
  std::vector<char> needs_grad(g.size(), 0);
  for (const Node& n : g.nodes()) {
    needs_grad[n.id] =
        n.op == OpType::kParam ||
        std::any_of(n.inputs.begin(), n.inputs.end(),
                    [&](NodeId in) { return needs_grad[in] != 0; });
  }

  // d(loss)/d(node value) for each node; lazily initialized to zeros.
  std::vector<Tensor> grads(g.size());
  auto grad_of = [&](NodeId id) -> Tensor& {
    if (grads[id].size() == 0 && value[id]->size() != 0) {
      grads[id] = Tensor::Zeros(value[id]->shape());
    }
    return grads[id];
  };
  // Adds a matmul product into a node's gradient. The first contribution
  // is moved in rather than added to a zero-filled tensor: the kernels never
  // return -0, so 0 + v == v bit for bit.
  auto add_product = [&](NodeId id, Tensor product) {
    if (grads[id].size() == 0) {
      grads[id] = std::move(product);
    } else {
      grads[id].AddInPlace(product);
    }
  };

  FL_CHECK_MSG(g.size() > 0, "cannot backprop an empty graph");
  const Node& last = g.node(static_cast<NodeId>(g.size() - 1));

  // Seed the gradient at the loss node.
  switch (last.op) {
    case OpType::kSoftmaxXent: {
      const Tensor& probs = fwd.values[last.id];
      const Tensor& labels = *value[last.inputs[1]];
      const std::size_t b = probs.shape()[0], cls = probs.shape()[1];
      Tensor dlogits = probs;
      const float inv_b = 1.0f / static_cast<float>(b);
      for (std::size_t i = 0; i < b; ++i) {
        const auto y = static_cast<std::size_t>(labels.at(i, 0));
        dlogits.at(i, y) -= 1.0f;
      }
      dlogits.Scale(inv_b);
      (void)cls;
      grads[last.inputs[0]] = std::move(dlogits);
      break;
    }
    case OpType::kMeanSquaredError: {
      const Tensor& pred = *value[last.inputs[0]];
      const Tensor& target = *value[last.inputs[1]];
      Tensor d = pred;
      d.AddInPlace(target, -1.0f);
      d.Scale(2.0f / static_cast<float>(pred.size()));
      grads[last.inputs[0]] = std::move(d);
      break;
    }
    case OpType::kBinaryXent: {
      const Tensor& prob = *value[last.inputs[0]];
      const Tensor& label = *value[last.inputs[1]];
      Tensor d = Tensor::Zeros(prob.shape());
      const float inv_n = 1.0f / static_cast<float>(prob.size());
      for (std::size_t i = 0; i < prob.size(); ++i) {
        const float p = std::clamp(prob.at(i), 1e-7f, 1.0f - 1e-7f);
        d.at(i) = inv_n * (p - label.at(i)) / (p * (1.0f - p));
      }
      grads[last.inputs[0]] = std::move(d);
      break;
    }
    default:
      return InvalidArgumentError(
          "final graph node must be a loss op, got " +
          std::string(OpTypeName(last.op)));
  }

  // Reverse sweep (skip the loss node: already handled).
  for (std::size_t idx = g.size() - 1; idx-- > 0;) {
    const Node& n = g.node(static_cast<NodeId>(idx));
    if (grads[n.id].size() == 0) continue;  // node does not affect the loss
    const Tensor& dy = grads[n.id];
    switch (n.op) {
      case OpType::kInput:
      case OpType::kParam:
        break;  // leaves
      case OpType::kMatMul:
      case OpType::kFusedMatMulBias: {
        const Tensor& x = *value[n.inputs[0]];
        const Tensor& w = *value[n.inputs[1]];
        if (needs_grad[n.inputs[0]]) {
          add_product(n.inputs[0], Tensor::MatMulTransB(dy, w));
        }
        if (needs_grad[n.inputs[1]]) {
          add_product(n.inputs[1], Tensor::MatMulTransA(x, dy));
        }
        if (n.op == OpType::kFusedMatMulBias && needs_grad[n.inputs[2]]) {
          const std::size_t cols = dy.shape()[1];
          float* db = grad_of(n.inputs[2]).mutable_data().data();
          const float* pdy = dy.data().data();
          for (std::size_t i = 0; i < dy.shape()[0]; ++i, pdy += cols) {
            for (std::size_t j = 0; j < cols; ++j) db[j] += pdy[j];
          }
        }
        break;
      }
      case OpType::kAddBias: {
        grad_of(n.inputs[0]).AddInPlace(dy);
        Tensor& db = grad_of(n.inputs[1]);
        for (std::size_t i = 0; i < dy.shape()[0]; ++i) {
          for (std::size_t j = 0; j < dy.shape()[1]; ++j) {
            db.at(j) += dy.at(i, j);
          }
        }
        break;
      }
      case OpType::kRelu: {
        const Tensor& x = *value[n.inputs[0]];
        Tensor& dx = grad_of(n.inputs[0]);
        for (std::size_t i = 0; i < x.size(); ++i) {
          if (x.at(i) > 0.0f) dx.at(i) += dy.at(i);
        }
        break;
      }
      case OpType::kTanh:
      case OpType::kFastTanh: {
        const float* y = value[n.id]->data().data();
        const float* pdy = dy.data().data();
        float* dx = grad_of(n.inputs[0]).mutable_data().data();
        for (std::size_t i = 0; i < dy.size(); ++i) {
          dx[i] += pdy[i] * (1.0f - y[i] * y[i]);
        }
        break;
      }
      case OpType::kSigmoid: {
        const Tensor& y = *value[n.id];
        Tensor& dx = grad_of(n.inputs[0]);
        for (std::size_t i = 0; i < y.size(); ++i) {
          dx.at(i) += dy.at(i) * y.at(i) * (1.0f - y.at(i));
        }
        break;
      }
      case OpType::kEmbedLookup: {
        if (!needs_grad[n.inputs[1]]) break;
        const Tensor& ids = *value[n.inputs[0]];
        const std::size_t d = value[n.inputs[1]]->shape()[1];
        float* dtable = grad_of(n.inputs[1]).mutable_data().data();
        const float* pdy = dy.data().data();
        for (std::size_t i = 0; i < ids.size(); ++i, pdy += d) {
          float* row = dtable + static_cast<std::size_t>(ids.at(i)) * d;
          for (std::size_t k = 0; k < d; ++k) row[k] += pdy[k];
        }
        break;
      }
      case OpType::kSoftmaxXent:
      case OpType::kMeanSquaredError:
      case OpType::kBinaryXent:
        return InvalidArgumentError(
            "loss op found in the middle of the graph");
    }
  }

  Gradients out;
  for (const Node* p : g.Params()) {
    if (grads[p->id].size() == 0) {
      out[p->name] = Tensor::Zeros(p->shape);
    } else {
      out[p->name] = std::move(grads[p->id]);
    }
  }
  if (forward_out != nullptr) *forward_out = std::move(fwd);
  return out;
}

Status ApplySgd(Checkpoint& params, const Gradients& grads, float lr) {
  for (const auto& [name, g] : grads) {
    FL_ASSIGN_OR_RETURN(Tensor * p, params.GetMutable(name));
    if (!p->SameShape(g)) {
      return InvalidArgumentError("gradient shape mismatch for '" + name +
                                  "'");
    }
    p->AddInPlace(g, -lr);
  }
  return Status::Ok();
}

}  // namespace fl::graph
