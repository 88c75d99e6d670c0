// Regenerates Fig. 4: loss landscapes of the global models trained by
// FedAvg and FedCross (ResNet family, CIFAR-10-like) under beta = 0.1 and
// IID. We emit the 2-D filter-normalised loss grid for each (model,
// setting) pair plus scalar sharpness summaries. The paper's claim to
// check: FedAvg's minima are sharper than FedCross's.
#include <cstdio>
#include <memory>
#include <string_view>

#include "bench_common.h"
#include "core/landscape.h"
#include "fl/fedavg.h"
#include "util/csv_writer.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace fedcross::bench {
namespace {

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  fl::SetFlThreads(flags.GetInt("fl_threads", 0));
  int rounds = flags.GetInt("rounds", 60);
  int grid = flags.GetInt("grid", 9);
  double radius = flags.GetDouble("radius", 0.8);
  int num_clients = flags.GetInt("clients", 50);
  int k = flags.GetInt("k", 5);
  std::string arch = flags.GetString("arch", "resnet");
  std::string csv_path = flags.GetString("csv", "fig4_landscape.csv");
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }

  util::CsvWriter csv(csv_path);
  csv.WriteRow({"setting", "method", "x", "y", "loss"});
  util::TablePrinter table({"Setting", "Method", "Center loss",
                            "Border sharpness", "Max increase"});

  for (double beta : {0.1, 0.0}) {
    for (const char* method : {"fedavg", "fedcross"}) {
      DataSpec data_spec;
      data_spec.dataset = "cifar10";
      data_spec.beta = beta;
      data_spec.num_clients = num_clients;
      data_spec.train_per_class = 80;
      auto data = BuildData(data_spec);
      auto factory = BuildModel(data_spec, ModelChoice{arch, 1});
      if (!data.ok() || !factory.ok()) {
        std::fprintf(stderr, "setup failed\n");
        return 1;
      }

      RunSpec spec;
      spec.data = data_spec;
      spec.model.arch = arch;
      spec.method = method;
      spec.rounds = rounds;
      spec.fedcross.alpha = 0.9;
      // Re-run through the shared driver to get the trained global model:
      // we rebuild the algorithm here so we can extract parameters.
      fl::AlgorithmConfig config;
      config.clients_per_round = k;
      config.train.local_epochs = spec.local_epochs;
      config.train.batch_size = spec.batch_size;
      config.train.lr = spec.lr;
      config.train.momentum = spec.momentum;
      config.seed = spec.seed;

      std::unique_ptr<fl::FlAlgorithm> algorithm;
      if (std::string_view(method) == "fedavg") {
        algorithm = std::make_unique<fl::FedAvg>(
            config, std::move(data).value(), factory.value());
      } else {
        algorithm = std::make_unique<core::FedCross>(
            config, std::move(data).value(), factory.value(), spec.fedcross);
      }
      algorithm->Run(rounds, /*eval_every=*/rounds);
      fl::FlatParams params = algorithm->GlobalParams();

      core::LandscapeOptions landscape_options;
      landscape_options.grid = grid;
      landscape_options.radius = radius;
      landscape_options.max_examples = 100;
      core::LandscapeResult landscape = core::ProbeLossLandscape(
          factory.value(), params, algorithm->test_set(), landscape_options);

      std::string setting = HeterogeneityLabel(beta);
      int half = grid / 2;
      for (int yi = 0; yi < grid; ++yi) {
        for (int xi = 0; xi < grid; ++xi) {
          csv.WriteRow(
              {setting, method,
               util::CsvWriter::Field(radius * (xi - half) / half),
               util::CsvWriter::Field(radius * (yi - half) / half),
               util::CsvWriter::Field(landscape.loss[yi][xi])});
        }
      }
      table.AddRow({setting, method,
                    util::TablePrinter::Fixed(landscape.center_loss, 4),
                    util::TablePrinter::Fixed(landscape.border_sharpness, 4),
                    util::TablePrinter::Fixed(landscape.max_increase, 4)});
      std::printf(".");
      std::fflush(stdout);
    }
  }

  std::printf("\n=== Fig. 4: loss-landscape sharpness of trained global "
              "models (%s, CIFAR-10-like) ===\n",
              arch.c_str());
  table.Print(stdout);
  std::printf("Expected shape: FedAvg rows sharper (larger border "
              "sharpness / max increase) than FedCross rows.\n");
  std::printf("CSV written to %s\n", csv_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fedcross::bench

int main(int argc, char** argv) { return fedcross::bench::Main(argc, argv); }
