#ifndef MLP_SERVE_REQUEST_BATCHER_H_
#define MLP_SERVE_REQUEST_BATCHER_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/request_trace.h"
#include "serve/read_model.h"

namespace mlp {
namespace serve {

/// A coalesced set of point lookups (the POST /v1/batch payload).
struct BatchRequest {
  std::vector<graph::UserId> users;
  std::vector<std::pair<graph::UserId, graph::UserId>> edges;
};

/// Renders the POST /v1/batch response body, {"users":[...],"edges":[...]},
/// in request order on the calling thread: each slot is the pre-rendered
/// fragment the point endpoint serves for that id, byte for byte, or
/// `null` for an out-of-range user or an absent edge. Resolving the
/// fragments is charged to `trace`'s lookup stage and joining them to its
/// render stage; `trace` may be null.
std::string RenderBatchJson(const ReadModel& model, const BatchRequest& request,
                            obs::RequestTrace* trace);

}  // namespace serve
}  // namespace mlp

#endif  // MLP_SERVE_REQUEST_BATCHER_H_
