// Ablation A1 — workflow-engine overhead (GAT substrate, [5]).
//
// The paper's processes are long-running, so engine overhead must be
// negligible next to promise operations. Measures bare step dispatch,
// interleaving cost across many instances, and a full promise-backed
// order workflow per instance.

#include <benchmark/benchmark.h>

#include "core/promise_manager.h"
#include "service/services.h"
#include "workflow/engine.h"

namespace promises {
namespace {

void BM_BareStepDispatch(benchmark::State& state) {
  WorkflowDef def("noop");
  def.Step("only", [](WorkflowContext*) { return StepResult::Complete(); });
  WorkflowEngine engine;
  for (auto _ : state) {
    auto id = engine.Start(&def);
    engine.RunToQuiescence();
    benchmark::DoNotOptimize(engine.Report(*id));
  }
}
BENCHMARK(BM_BareStepDispatch);

void BM_InterleavedInstances(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  WorkflowDef def("chain");
  for (int s = 0; s < 8; ++s) {
    std::string name = std::string("s").append(std::to_string(s));
    def.Step(name, [](WorkflowContext* ctx) {
      ctx->vars()["x"] = Value(ctx->vars().count("x")
                                   ? ctx->vars().at("x").as_int() + 1
                                   : 1);
      return StepResult::Next();
    });
  }
  for (auto _ : state) {
    WorkflowEngine engine;
    for (int i = 0; i < instances; ++i) (void)engine.Start(&def);
    engine.RunToQuiescence();
  }
  state.SetItemsProcessed(state.iterations() * instances * 8);
}
BENCHMARK(BM_InterleavedInstances)->Arg(1)->Arg(16)->Arg(256);

void BM_PromiseBackedOrderWorkflow(benchmark::State& state) {
  SimulatedClock clock;
  TransactionManager tm(5000);
  ResourceManager rm;
  (void)rm.CreatePool("gadget", 1'000'000'000);
  PromiseManagerConfig config;
  config.name = "merchant";
  config.default_duration_ms = 3'600'000;
  PromiseManager pm(config, &clock, &rm, &tm);
  pm.RegisterService("inventory", MakeInventoryService());
  ClientId client = pm.ClientFor("wf");

  WorkflowDef def("order");
  def.Step("secure",
           [&](WorkflowContext* ctx) {
             auto g = pm.RequestPromise(
                 client,
                 {Predicate::Quantity("gadget", CompareOp::kGe, 5)});
             if (!g.ok() || !g->accepted) {
               return StepResult::Fail("no stock");
             }
             ctx->vars()["promise"] =
                 Value(static_cast<int64_t>(g->promise_id.value()));
             return StepResult::Next();
           })
      .Step("purchase", [&](WorkflowContext* ctx) {
        PromiseId promise(
            static_cast<uint64_t>(ctx->vars().at("promise").as_int()));
        ActionBody buy;
        buy.service = "inventory";
        buy.operation = "purchase";
        buy.params["item"] = Value("gadget");
        buy.params["quantity"] = Value(5);
        buy.params["promise"] =
            Value(static_cast<int64_t>(promise.value()));
        EnvironmentHeader env;
        env.entries.push_back({promise, true});
        auto out = pm.Execute(client, buy, env);
        if (!out.ok() || !out->ok) return StepResult::Fail("buy failed");
        return StepResult::Complete();
      });

  for (auto _ : state) {
    WorkflowEngine engine;
    auto id = engine.Start(&def);
    engine.RunToQuiescence();
    if (engine.Report(*id)->state != InstanceState::kCompleted) {
      state.SkipWithError("workflow failed");
      return;
    }
  }
}
BENCHMARK(BM_PromiseBackedOrderWorkflow);

}  // namespace
}  // namespace promises

BENCHMARK_MAIN();
