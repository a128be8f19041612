#include "serve/server.h"

namespace vf::serve {

namespace {

ModelRegistry one_model_registry(VirtualFlowEngine& engine, const Dataset& request_pool,
                                 const ServerConfig& config) {
  ModelConfig mc;
  mc.queue_capacity = config.queue_capacity;
  mc.batch = config.batch;
  mc.deadline_s = config.deadline_s;
  mc.shed_expired = config.shed_expired;
  ModelRegistry registry;
  registry.add(engine, request_pool, mc);
  return registry;
}

ColocationConfig loop_config(const ServerConfig& config) {
  ColocationConfig cc;
  cc.elastic = config.elastic;
  cc.continuous = config.continuous;
  cc.stream = config.stream;
  return cc;
}

}  // namespace

Server::Server(VirtualFlowEngine& engine, const Dataset& request_pool, ServerConfig config)
    : ColocatedServer(one_model_registry(engine, request_pool, config), loop_config(config)) {}

}  // namespace vf::serve
