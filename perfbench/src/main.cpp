// Measuring program of the ftnav campaign benchmark (driven by
// perfbench/run.py; see perfbench/README.md).
//
//   ftnav_perfbench run   --scenario NAME [--param k=v]... --threads N
//                         --out DIR [--spawn-stamp SECONDS]
//       One scenario run through the registry's public run(): writes
//       DIR/stdout.txt (the `fault_campaign run` banner + result text),
//       DIR/artifacts.json (ScenarioResult::to_json) and DIR/record.json
//       (phase timestamps on the steady clock, the scenario's perf
//       sections, the workload fingerprint and the cost-model estimate).
//   ftnav_perfbench probe --scenario NAME [--param k=v]... --threads N
//                         --out DIR
//       Replays a fixed sample of the workload's own work by calling
//       each module's public functions under obs::TraceSpan (run with
//       FTNAV_TRACE_DIR set) and writes the counts recorded at the same
//       boundaries to DIR/probe.json.
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage or parameter error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/machine_profile.h"
#include "nn/engine_slot.h"
#include "nn/kernels/kernels.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "probes.h"
#include "scenario/scenario.h"
#include "util/perf.h"

namespace {

using ftnav::ParamSet;
using ftnav::ScenarioSpec;

struct Args {
  std::string command;
  std::string scenario;
  std::vector<std::string> params;  // "k=v"
  int threads = 0;
  std::string out_dir;
  double spawn_stamp = 0.0;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "ftnav_perfbench: %s\n"
               "usage: ftnav_perfbench run|probe --scenario NAME "
               "[--param k=v]... --threads N --out DIR "
               "[--spawn-stamp SECONDS]\n",
               message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args args;
  args.command = argv[1];
  if (args.command != "run" && args.command != "probe")
    usage("unknown command '" + args.command + "'");
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--scenario") {
      args.scenario = value;
    } else if (flag == "--param") {
      args.params.push_back(value);
    } else if (flag == "--threads") {
      args.threads = std::atoi(value.c_str());
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--spawn-stamp") {
      args.spawn_stamp = std::strtod(value.c_str(), nullptr);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.scenario.empty() || args.out_dir.empty() || args.threads <= 0)
    usage("--scenario, --out and a positive --threads are required");
  return args;
}

/// Registry lookup plus parameter binding (CLI rank, as the
/// `fault_campaign run --param` front-end applies them).
ParamSet bind_params(const ScenarioSpec& spec,
                     const std::vector<std::string>& kvs) {
  ParamSet params = spec.make_params();
  for (const std::string& kv : kvs) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos)
      throw ftnav::ParamError("--param expects k=v, got '" + kv + "'");
    params.set(kv.substr(0, eq), kv.substr(eq + 1), ftnav::ParamSource::kCli);
  }
  return params;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.9f", value);
  return buffer;
}

/// Peak resident set of this process image in MiB (VmHWM). Unlike
/// getrusage's ru_maxrss it excludes the pre-exec image of the parent
/// that forked this process. 0 where /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string quote(const std::string& text) {
  return "\"" + ftnav::obs::json_escaped(text) + "\"";
}

/// The workload fingerprint and cost-model estimate, shared by both
/// commands' JSON records.
std::string identity_json(const ScenarioSpec& spec, const ParamSet& params,
                          int threads) {
  double cost_trials = 0.0;
  double cost_total_s = 0.0;
  if (spec.cost) {
    const ftnav::cost::CostEstimate estimate = spec.cost(params);
    const ftnav::cost::MachineProfile profile =
        ftnav::cost::MachineProfile::from_env();
    for (const ftnav::cost::CampaignCost& campaign : estimate.campaigns)
      cost_trials += static_cast<double>(campaign.perf_trial_count());
    cost_total_s = estimate.total_seconds(profile);
  }
  return "\"scenario\": " + quote(spec.name) +
         ",\n \"params\": " + quote(params.canonical()) +
         ",\n \"backend\": " + quote(ftnav::kernels::active().name) +
         ",\n \"trial_batch\": " +
         std::to_string(ftnav::resolve_trial_batch(-1)) +
         ",\n \"threads\": " + std::to_string(threads) +
         ",\n \"cost_trials\": " + fmt(cost_trials) +
         ",\n \"cost_total_s\": " + fmt(cost_total_s);
}

int command_run(const Args& args, double t_main) {
  const double t_lookup = ftnav::perf::now();
  ParamSet params;
  std::unique_ptr<ftnav::Scenario> scenario;
  const ScenarioSpec* spec = nullptr;
  {
    ftnav::obs::TraceSpan span("scenario.bind", "bench");
    spec = ftnav::ScenarioRegistry::instance().find(args.scenario);
    if (spec == nullptr) usage("unknown scenario '" + args.scenario + "'");
    params = bind_params(*spec, args.params);
    scenario = spec->factory(params);
  }
  const double t_bound = ftnav::perf::now();

  ftnav::ScenarioContext context;
  context.threads = args.threads;
  ftnav::ScenarioResult result;
  {
    ftnav::obs::TraceSpan span("scenario.run", "bench");
    result = scenario->run(context);
  }
  const double t_ran = ftnav::perf::now();

  {
    ftnav::obs::TraceSpan span("scenario.export", "bench");
    // Byte-for-byte what `fault_campaign run <name> --param ... --json`
    // prints to stdout and writes to the JSON file.
    write_file(args.out_dir + "/stdout.txt",
               "scenario: " + spec->name + "\nparams: " +
                   params.canonical() + "\n" + result.text);
    write_file(args.out_dir + "/artifacts.json", result.to_json());
  }
  const double t_exported = ftnav::perf::now();

  std::string sections;
  for (const ftnav::perf::Section& section : ftnav::perf::drain_sections()) {
    if (!sections.empty()) sections += ", ";
    sections += "{\"name\": " + quote(section.name) +
                ", \"ops\": " + std::to_string(section.ops) +
                ", \"seconds\": " + fmt(section.seconds) + "}";
  }
  write_file(args.out_dir + "/record.json",
             "{" + identity_json(*spec, params, args.threads) +
                 ",\n \"t_spawn\": " + fmt(args.spawn_stamp) +
                 ",\n \"t_main\": " + fmt(t_main) +
                 ",\n \"t_lookup\": " + fmt(t_lookup) +
                 ",\n \"t_bound\": " + fmt(t_bound) +
                 ",\n \"t_ran\": " + fmt(t_ran) +
                 ",\n \"t_exported\": " + fmt(t_exported) +
                 ",\n \"peak_rss_mb\": " + fmt(peak_rss_mb()) +
                 ",\n \"sections\": [" + sections + "]}\n");
  return 0;
}

int command_probe(const Args& args) {
  if (ftnav::obs::trace() == nullptr) usage("probe needs FTNAV_TRACE_DIR");
  const ScenarioSpec* spec =
      ftnav::ScenarioRegistry::instance().find(args.scenario);
  if (spec == nullptr) usage("unknown scenario '" + args.scenario + "'");
  const ParamSet params = bind_params(*spec, args.params);
  const std::string probe_json =
      perfbench::run_probes(perfbench::ProbeRequest{*spec, params, args.threads});
  write_file(args.out_dir + "/probe.json",
             "{" + identity_json(*spec, params, args.threads) + ",\n" +
                 probe_json + "}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = ftnav::perf::now();
  // Warm the recorder up front so a traced process always flushes its
  // trace at exit (a null recorder when FTNAV_TRACE_DIR is unset).
  ftnav::obs::trace();
  const Args args = parse_args(argc, argv);
  try {
    return args.command == "run" ? command_run(args, t_main)
                                 : command_probe(args);
  } catch (const ftnav::ParamError& error) {
    std::fprintf(stderr, "ftnav_perfbench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ftnav_perfbench: error: %s\n", error.what());
    return 1;
  }
}
