// Table 2: model configurations, as realized by the operator-graph builders.
// Prints the nominal vs built parameter counts and the per-family batches so
// the substitution for the real Wide-ResNet / BERT / GShard-MoE checkpoints is
// auditable.

#include "bench/bench_util.h"
#include "src/model/models.h"
#include "src/util/units.h"

int main(int argc, char** argv) {
  using namespace crius;
  RequireNoArgs(argc, argv);

  Table table("Table 2: model configurations (built from architecture formulas)");
  table.SetHeader({"model", "nominal params", "built params", "operators",
                   "fwd GFLOPs/sample", "activation MB/sample", "global batches"});

  for (ModelFamily family :
       {ModelFamily::kWideResNet, ModelFamily::kBert, ModelFamily::kMoe}) {
    for (double size : SupportedSizes(family)) {
      const ModelSpec spec{family, size, SupportedBatches(family)[0]};
      const OpGraph& g = GetOpGraph(spec);
      std::string batches;
      for (int64_t b : SupportedBatches(family)) {
        if (!batches.empty()) {
          batches += ",";
        }
        batches += std::to_string(b);
      }
      table.AddRow({spec.Name(), Table::Fmt(size, 2) + "B",
                    Table::Fmt(g.TotalParamBytes() / 2.0 / kBillion, 2) + "B",
                    Table::FmtInt(static_cast<int64_t>(g.size())),
                    Table::Fmt(g.TotalFwdFlops() / 1e9, 1),
                    Table::Fmt(g.ActBytes(0, g.size()) / 1e6, 1), batches});
    }
  }
  table.Print();
  return 0;
}
