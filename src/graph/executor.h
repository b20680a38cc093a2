// Graph executor: forward evaluation and reverse-mode autodiff.
//
// The device-side FL runtime executes plans through this interface — it is
// the stand-in for the on-device TensorFlow interpreter (Sec. 3, Task
// Execution). Runtime versioning matters: an Executor is constructed with a
// runtime_version and refuses graphs containing ops newer than it, exactly
// the incompatibility the paper's versioned plans solve (Sec. 7.3).
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/checkpoint.h"

namespace fl::graph {

// Named feeds for kInput nodes.
using Feeds = std::map<std::string, Tensor>;
// Parameter gradients keyed by kParam node name.
using Gradients = std::map<std::string, Tensor>;

struct ForwardResult {
  // Value of every computed node, indexed by NodeId. kInput and kParam
  // slots stay empty: their values are the feeds and checkpoint tensors the
  // pass read, which it does not copy.
  std::vector<Tensor> values;
  // Mean loss if the graph's final node is a loss op.
  double loss = 0.0;
  // For kSoftmaxXent graphs: fraction of rows whose argmax matches labels.
  double accuracy = 0.0;
  bool has_accuracy = false;
};

class Executor {
 public:
  explicit Executor(std::uint32_t runtime_version)
      : runtime_version_(runtime_version) {}

  std::uint32_t runtime_version() const { return runtime_version_; }

  // Evaluates all nodes. Params are read from `params`; inputs from `feeds`.
  Result<ForwardResult> Forward(const Graph& g, const Checkpoint& params,
                                const Feeds& feeds) const;

  // Runs forward then backprop from the final (loss) node; returns gradients
  // for every kParam node.
  Result<Gradients> Backward(const Graph& g, const Checkpoint& params,
                             const Feeds& feeds,
                             ForwardResult* forward_out = nullptr) const;

 private:
  Status ValidateVersion(const Graph& g) const;
  // The forward pass behind Forward and Backward. On success value[id]
  // points at node id's value: the feed or checkpoint tensor for kInput and
  // kParam nodes, result.values[id] otherwise.
  Status Evaluate(const Graph& g, const Checkpoint& params, const Feeds& feeds,
                  ForwardResult& result,
                  std::vector<const Tensor*>& value) const;
  std::uint32_t runtime_version_;
};

// Plain SGD application: params[name] -= lr * grads[name].
Status ApplySgd(Checkpoint& params, const Gradients& grads, float lr);

}  // namespace fl::graph
