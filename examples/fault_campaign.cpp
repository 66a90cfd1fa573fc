// fault_campaign: the generic command-line front-end for the scenario
// registry -- every fault-injection campaign in the repo, addressable
// by name, without writing any code -- and for the campaign service
// built on top of it.
//
//   fault_campaign list [--names]
//   fault_campaign describe <name> | --all [--markdown | --json] [--cost]
//   fault_campaign run <name> [options]
//   fault_campaign serve --bind <host:port> [--journal f]
//       [--auth-token t] [--addr-file f]
//   fault_campaign submit <name> --server <host:port> [--tag t]
//       [--workers n] [options]
//   fault_campaign status --server <host:port>
//   fault_campaign attach <tag> --server <host:port> [--workers n]
//
// Every subcommand shares one flag table (`--help` on any subcommand
// lists exactly the flags it accepts and exits 0; an unknown or
// out-of-place flag exits 2). Scenario parameters come from three
// sources with fixed precedence --param > FTNAV_<PARAM> environment
// variables > --config JSON > declared defaults; unknown keys and
// malformed values exit 2 (see src/scenario/param_set.h).
//
// `run` is the classic single-coordinator entry point, unchanged:
// long campaigns stream progress (--progress N), checkpoint to disk
// (--checkpoint FILE), resume (--resume), stop gracefully
// (--stop-after N, exit 3). --workers N runs the campaign distributed
// (see src/dist/): the coordinator hosts a campaign server in-process
// (on --queue-addr, default 127.0.0.1:0), re-execs this binary N
// times in worker mode, the workers lease the shard stream from that
// server, and the coordinator merges their partial checkpoints.
// Output -- stdout, --json, and the merged checkpoint bytes -- is
// identical for every worker count and lease batch size, and
// identical to a plain single-process run, even when workers are
// killed mid-campaign. (Hidden worker-mode flags: --worker-id K plus
// --queue-addr, --tag for the queue namespace, and the
// --worker-fail-after N crash-test hook.) A campaign that must
// outlive its coordinator runs on a `serve --journal` daemon instead.
//
// The campaign-service subcommands decouple the queue from the
// coordinator process (src/dist/campaign_server.h):
//
//   serve    runs the standalone daemon -- durable journal, session
//            auth, multi-tenant queues;
//   submit   registers a campaign under a tag on a running server,
//            reserves fresh worker ids, spawns workers against it,
//            and finalizes -- stdout/JSON/checkpoint byte-identical
//            to `run`;
//   status   lists the server's registered campaigns and per-queue
//            progress;
//   attach   picks up a submitted campaign by tag -- any machine with
//            a route to the server can finish a campaign whose
//            original coordinator (and even the server itself, when
//            journaled) died mid-run, with byte-identical artifacts.
//
// Example:
//   ./build/examples/fault_campaign run grid-inference
//       --param policy=nn --param bers=0.005 --param repeats=200
//       --param mitigate=true --workers 4
//       --checkpoint /tmp/campaign.ckpt --json /tmp/campaign.json

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "dist/campaign_server.h"
#include "dist/dist_campaign.h"
#include "dist/dist_coordinator.h"
#include "dist/status_doc.h"
#include "dist/tcp_transport.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "util/binary_io.h"
#include "util/env_config.h"

namespace {

using namespace ftnav;

// ---- the shared flag table -----------------------------------------------

enum : unsigned {
  kCmdList = 1u << 0,
  kCmdDescribe = 1u << 1,
  kCmdRun = 1u << 2,
  kCmdServe = 1u << 3,
  kCmdSubmit = 1u << 4,
  kCmdStatus = 1u << 5,
  kCmdAttach = 1u << 6,
};
constexpr unsigned kLaunchCmds = kCmdRun | kCmdSubmit | kCmdAttach;

struct CommandInfo {
  const char* name;
  unsigned mask;
  const char* args;  // positional-argument synopsis ("" when none)
  const char* summary;
};

constexpr CommandInfo kCommands[] = {
    {"list", kCmdList, "", "registered scenarios (sorted)"},
    {"describe", kCmdDescribe, "<name> | --all",
     "parameter schema and documentation"},
    {"run", kCmdRun, "<name>",
     "run a scenario (optionally distributed from this process)"},
    {"serve", kCmdServe, "",
     "run the standalone campaign-server daemon (journal, auth, tags)"},
    {"submit", kCmdSubmit, "<name>",
     "submit a campaign to a running campaign server and drive it"},
    {"status", kCmdStatus, "",
     "show a campaign server's registrations and queue progress"},
    {"attach", kCmdAttach, "<tag>",
     "attach to a submitted campaign and drive it to completion"},
};

struct FlagInfo {
  const char* name;
  const char* value;  // metavar; nullptr marks a boolean flag
  const char* help;
  unsigned commands;
  bool hidden;  // worker-mode plumbing, kept out of --help
};

constexpr FlagInfo kFlags[] = {
    {"--names", nullptr, "print scenario names only", kCmdList, false},
    {"--all", nullptr, "describe every scenario", kCmdDescribe, false},
    {"--markdown", nullptr, "render the README catalog flavor",
     kCmdDescribe, false},
    {"--json", nullptr, "machine-readable ParamSpec schema dump",
     kCmdDescribe, false},
    {"--cost", nullptr,
     "analytic cost estimate at default parameters (with --json: a "
     "ftnav-cost-report-v1 document)",
     kCmdDescribe, false},
    {"--param", "k=v", "scenario parameter (repeatable; see describe)",
     kCmdRun | kCmdSubmit, false},
    {"--config", "file", "JSON parameter file {\"k\": value, ...}",
     kCmdRun | kCmdSubmit, false},
    {"--threads", "n", "campaign worker threads (0 = all cores)",
     kLaunchCmds, false},
    {"--progress", "n", "print progress at least every n trials",
     kLaunchCmds, false},
    {"--checkpoint", "f", "checkpoint file (kill/resume; merged output)",
     kLaunchCmds, false},
    {"--resume", nullptr, "resume from --checkpoint", kCmdRun, false},
    {"--stop-after", "n", "graceful stop after n shards (exit 3)",
     kCmdRun, false},
    {"--workers", "n", "distributed worker processes", kLaunchCmds, false},
    {"--queue-addr", "a",
     "in-process campaign server bind (default 127.0.0.1:0)", kCmdRun,
     false},
    {"--server", "a", "campaign server host:port (default: FTNAV_SERVER)",
     kCmdSubmit | kCmdStatus | kCmdAttach, false},
    {"--tag", "t", "campaign tag (default: scenario + params digest)",
     kCmdSubmit, false},
    {"--auth-token", "t", "session token (default: FTNAV_AUTH_TOKEN)",
     kCmdRun | kCmdServe | kCmdSubmit | kCmdStatus | kCmdAttach, false},
    {"--lease-expiry", "s", "dead-worker lease expiry in seconds (0 = off)",
     kLaunchCmds, false},
    {"--poll-period", "s", "idle poll backoff cap in seconds",
     kLaunchCmds, false},
    {"--lease-batch", "n", "shards leased per claim round-trip",
     kLaunchCmds, false},
    {"--json", "f", "write result artifacts as JSON", kLaunchCmds, false},
    {"--json", nullptr, "machine-readable status document (ftnav-status-v1)",
     kCmdStatus, false},
    {"--bind", "a", "listen address host:port (port 0 = kernel-picked)",
     kCmdServe, false},
    {"--journal", "f", "durable journal file (replayed on restart)",
     kCmdServe, false},
    {"--addr-file", "f", "write the resolved address to this file",
     kCmdServe, false},
    // Worker-mode plumbing (the coordinator builds these):
    {"--worker-id", "k", "", kCmdRun, true},
    {"--worker-fail-after", "n", "", kCmdRun | kCmdSubmit, true},
    {"--tag", "t", "", kCmdRun, true},
};

const CommandInfo* find_command(const std::string& name) {
  for (const CommandInfo& command : kCommands)
    if (name == command.name) return &command;
  return nullptr;
}

const FlagInfo* find_flag(const std::string& name, unsigned cmd) {
  for (const FlagInfo& flag : kFlags)
    if (name == flag.name && (flag.commands & cmd) != 0) return &flag;
  return nullptr;
}

bool flag_exists_anywhere(const std::string& name) {
  for (const FlagInfo& flag : kFlags)
    if (name == flag.name) return true;
  return false;
}

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s <command> ...\ncommands:\n", argv0);
  for (const CommandInfo& command : kCommands) {
    char left[32];
    std::snprintf(left, sizeof left, "%s %s", command.name, command.args);
    std::fprintf(out, "  %-26s %s\n", left, command.summary);
  }
  std::fprintf(out, "run `%s <command> --help` for per-command options\n",
               argv0);
}

void print_command_usage(std::FILE* out, const char* argv0,
                         const CommandInfo& command) {
  std::fprintf(out, "usage: %s %s%s%s [options]\n%s\noptions:\n", argv0,
               command.name, command.args[0] ? " " : "", command.args,
               command.summary);
  for (const FlagInfo& flag : kFlags) {
    if ((flag.commands & command.mask) == 0 || flag.hidden) continue;
    char left[32];
    std::snprintf(left, sizeof left, "%s %s", flag.name,
                  flag.value != nullptr ? flag.value : "");
    std::fprintf(out, "  %-20s %s\n", left, flag.help);
  }
}

[[noreturn]] void usage_error(const char* argv0,
                              const CommandInfo* command = nullptr) {
  if (command != nullptr)
    print_command_usage(stderr, argv0, *command);
  else
    print_usage(stderr, argv0);
  std::exit(2);
}

/// Strict numeric flag parsing: the whole token must parse to a
/// finite value, so typos like "--lease-expiry 30s" and degenerate
/// inputs like "inf"/"nan"/"1e999" are rejected (exit 2) instead of
/// being silently accepted the way atof would.
double parse_double_or_die(const char* argv0, const CommandInfo* command,
                           const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value))
    usage_error(argv0, command);
  return value;
}

long parse_long_or_die(const char* argv0, const CommandInfo* command,
                       const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') usage_error(argv0, command);
  return value;
}

/// An integer flag: strict like parse_long_or_die, and it must fit an
/// int no smaller than `min`.
int parse_int_or_die(const char* argv0, const CommandInfo* command,
                     const char* text, int min) {
  const long value = parse_long_or_die(argv0, command, text);
  if (value < min || value > std::numeric_limits<int>::max())
    usage_error(argv0, command);
  return static_cast<int>(value);
}

/// "host:port" with a numeric port in 0..65535 (0 lets the kernel
/// pick); anything else is a usage error (exit 2), not a later
/// runtime failure.
std::string parse_addr_or_die(const char* argv0, const CommandInfo* command,
                              const char* text) {
  const std::string addr = text;
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size())
    usage_error(argv0, command);
  const long port =
      parse_long_or_die(argv0, command, addr.c_str() + colon + 1);
  if (port < 0 || port > 65535) usage_error(argv0, command);
  return addr;
}

/// Every flag any subcommand accepts, parsed against the shared table
/// (per-command masks decide validity). Positionals collect in order;
/// each subcommand validates its own count.
struct ParsedFlags {
  std::vector<std::string> positionals;
  std::vector<std::pair<std::string, std::string>> cli_params;
  std::string config_path;
  int threads = 0;
  int progress_every = 0;
  std::string checkpoint;
  bool resume = false;
  int stop_after = 0;
  int workers = 0;
  std::string queue_addr;
  std::string server;
  std::string tag;
  std::string auth_token;
  double lease_expiry = -1.0;  // < 0 = keep the DistConfig default
  double poll_period = 0.0;    // <= 0 = keep the DistConfig default
  int lease_batch = 0;         // <= 0 = keep the DistConfig default
  std::string json_path;
  std::string bind;
  std::string journal;
  std::string addr_file;
  bool names_only = false;
  bool all = false;
  bool markdown = false;
  bool json_schema = false;
  bool cost = false;
  int worker_id = -1;
  int worker_fail_after = 0;
};

ParsedFlags parse_flags(const CommandInfo& command, int argc, char** argv) {
  ParsedFlags flags;
  // Environment defaults, overridden by the explicit flag below.
  flags.auth_token = env_string("FTNAV_AUTH_TOKEN", "");
  flags.server = env_string("FTNAV_SERVER", "");
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_command_usage(stdout, argv[0], command);
      std::exit(0);
    }
    if (arg.empty() || arg[0] != '-') {
      flags.positionals.push_back(arg);
      continue;
    }
    const FlagInfo* flag = find_flag(arg, command.mask);
    if (flag == nullptr) {
      if (flag_exists_anywhere(arg))
        std::fprintf(stderr, "%s: option '%s' is not valid for '%s'\n",
                     argv[0], arg.c_str(), command.name);
      else
        std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                     arg.c_str());
      usage_error(argv[0], &command);
    }
    const char* value = nullptr;
    if (flag->value != nullptr) {
      if (i + 1 >= argc) usage_error(argv[0], &command);
      value = argv[++i];
    }

    if (arg == "--names") {
      flags.names_only = true;
    } else if (arg == "--all") {
      flags.all = true;
    } else if (arg == "--markdown") {
      flags.markdown = true;
    } else if (arg == "--json" && flag->value == nullptr) {
      flags.json_schema = true;
    } else if (arg == "--json") {
      flags.json_path = value;
    } else if (arg == "--cost") {
      flags.cost = true;
    } else if (arg == "--param") {
      const std::string kv = value;
      const std::size_t equals = kv.find('=');
      if (equals == std::string::npos || equals == 0)
        usage_error(argv[0], &command);
      flags.cli_params.emplace_back(kv.substr(0, equals),
                                    kv.substr(equals + 1));
    } else if (arg == "--config") {
      flags.config_path = value;
    } else if (arg == "--threads") {
      // 0 means every core.
      flags.threads = parse_int_or_die(argv[0], &command, value, 0);
    } else if (arg == "--progress") {
      flags.progress_every = parse_int_or_die(argv[0], &command, value, 1);
    } else if (arg == "--checkpoint") {
      flags.checkpoint = value;
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (arg == "--stop-after") {
      flags.stop_after = parse_int_or_die(argv[0], &command, value, 1);
    } else if (arg == "--workers") {
      flags.workers = parse_int_or_die(argv[0], &command, value, 1);
    } else if (arg == "--queue-addr") {
      flags.queue_addr = parse_addr_or_die(argv[0], &command, value);
    } else if (arg == "--server") {
      flags.server = parse_addr_or_die(argv[0], &command, value);
    } else if (arg == "--tag") {
      flags.tag = value;
    } else if (arg == "--auth-token") {
      flags.auth_token = value;
    } else if (arg == "--lease-expiry") {
      // 0 disables expiry-based reclaim (waitpid reclaim still runs).
      flags.lease_expiry = parse_double_or_die(argv[0], &command, value);
      if (flags.lease_expiry < 0.0) usage_error(argv[0], &command);
    } else if (arg == "--poll-period") {
      flags.poll_period = parse_double_or_die(argv[0], &command, value);
      if (flags.poll_period <= 0.0) usage_error(argv[0], &command);
    } else if (arg == "--lease-batch") {
      flags.lease_batch = parse_int_or_die(argv[0], &command, value, 1);
      if (flags.lease_batch > 1 << 20) usage_error(argv[0], &command);
    } else if (arg == "--bind") {
      flags.bind = parse_addr_or_die(argv[0], &command, value);
    } else if (arg == "--journal") {
      flags.journal = value;
    } else if (arg == "--addr-file") {
      flags.addr_file = value;
    } else if (arg == "--worker-id") {
      flags.worker_id = parse_int_or_die(argv[0], &command, value, 0);
    } else if (arg == "--worker-fail-after") {
      flags.worker_fail_after = parse_int_or_die(argv[0], &command, value, 1);
    } else {
      usage_error(argv[0], &command);  // table/handler mismatch
    }
  }
  return flags;
}

// ---- list / describe -----------------------------------------------------

int cmd_list(int argc, char** argv) {
  const ParsedFlags flags = parse_flags(*find_command("list"), argc, argv);
  if (!flags.positionals.empty()) usage_error(argv[0], find_command("list"));
  for (const ScenarioSpec* spec : ScenarioRegistry::instance().all()) {
    if (flags.names_only)
      std::printf("%s\n", spec->name.c_str());
    else
      std::printf("%-28s %s\n", spec->name.c_str(), spec->summary.c_str());
  }
  return 0;
}

int cmd_describe(int argc, char** argv) {
  const CommandInfo* command = find_command("describe");
  const ParsedFlags flags = parse_flags(*command, argc, argv);
  if (flags.positionals.size() > 1) usage_error(argv[0], command);
  const std::string name =
      flags.positionals.empty() ? std::string() : flags.positionals[0];
  if (flags.all == !name.empty()) usage_error(argv[0], command);
  if (flags.markdown && flags.json_schema) {
    std::fprintf(stderr, "%s: --markdown and --json are exclusive\n",
                 argv[0]);
    return 2;
  }
  if (flags.cost && flags.markdown) {
    std::fprintf(stderr, "%s: --markdown and --cost are exclusive\n",
                 argv[0]);
    return 2;
  }
  const ScenarioRegistry& registry = ScenarioRegistry::instance();
  if (flags.cost) {
    // Estimates bind the *declared default* parameters, so the report
    // is a stable artifact of the binary (CI snapshots it as
    // cost_report.json; see ci/validate_cost.py).
    cost::MachineProfile profile;
    try {
      profile = cost::MachineProfile::from_env();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 1;
    }
    std::vector<const ScenarioSpec*> specs;
    if (flags.all) {
      specs = registry.all();
    } else {
      const ScenarioSpec* spec = registry.find(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "%s: unknown scenario '%s' (try `%s list`)\n",
                     argv[0], name.c_str(), argv[0]);
        return 2;
      }
      specs.push_back(spec);
    }
    std::vector<cost::CostReportEntry> entries;
    for (const ScenarioSpec* spec : specs) {
      if (!spec->cost) {
        std::fprintf(stderr, "%s: scenario '%s' has no cost estimator\n",
                     argv[0], spec->name.c_str());
        return 1;
      }
      const ParamSet params = spec->make_params();
      entries.push_back({spec->name, params.canonical(),
                         spec->cost(params)});
    }
    if (flags.json_schema) {
      std::printf("%s", cost::cost_report_json(entries, profile).c_str());
      return 0;
    }
    bool first = true;
    for (const cost::CostReportEntry& entry : entries) {
      if (!first) std::printf("\n");
      first = false;
      std::printf("%s", cost::describe_cost_text(entry, profile).c_str());
    }
    return 0;
  }
  if (flags.all) {
    if (flags.json_schema) {
      std::printf("[");
      bool first = true;
      for (const ScenarioSpec* spec : registry.all()) {
        std::printf("%s%s", first ? "\n" : ",\n",
                    describe_scenario_json(*spec).c_str());
        first = false;
      }
      std::printf("\n]\n");
      return 0;
    }
    bool first = true;
    for (const ScenarioSpec* spec : registry.all()) {
      if (!flags.markdown && !first) std::printf("\n");
      first = false;
      std::printf("%s", describe_scenario(*spec, flags.markdown).c_str());
    }
    return 0;
  }
  const ScenarioSpec* spec = registry.find(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "%s: unknown scenario '%s' (try `%s list`)\n",
                 argv[0], name.c_str(), argv[0]);
    return 2;
  }
  if (flags.json_schema)
    std::printf("%s\n", describe_scenario_json(*spec).c_str());
  else
    std::printf("%s", describe_scenario(*spec, flags.markdown).c_str());
  return 0;
}

// ---- serve ---------------------------------------------------------------

volatile std::sig_atomic_t g_serve_stop = 0;

void on_serve_signal(int) { g_serve_stop = 1; }

int cmd_serve(int argc, char** argv) {
  const CommandInfo* command = find_command("serve");
  const ParsedFlags flags = parse_flags(*command, argc, argv);
  if (!flags.positionals.empty()) usage_error(argv[0], command);
  if (flags.bind.empty()) {
    std::fprintf(stderr, "%s: serve requires --bind host:port\n", argv[0]);
    return 2;
  }

  CampaignServer server(
      CampaignServerConfig{flags.bind, flags.journal, flags.auth_token});
  try {
    server.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 1;
  }
  std::printf("campaign_server: serving on %s\n", server.address().c_str());
  std::printf("campaign_server: journal %s\n",
              flags.journal.empty() ? "(in-memory only)"
                                    : flags.journal.c_str());
  std::printf("campaign_server: auth %s\n",
              flags.auth_token.empty() ? "open (no token)"
                                       : "session token required");
  std::fflush(stdout);
  if (!flags.addr_file.empty()) {
    // Written atomically (temp + rename): scripts poll this file to
    // learn a port-0 bind and must never read a half-written line.
    const std::string temp = flags.addr_file + ".tmp";
    {
      std::ofstream out(temp, std::ios::trunc);
      out << server.address() << "\n";
      if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                     flags.addr_file.c_str());
        return 1;
      }
    }
    std::error_code rename_error;
    std::filesystem::rename(temp, flags.addr_file, rename_error);
    if (rename_error) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   flags.addr_file.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  while (g_serve_stop == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::fprintf(stderr, "campaign_server: shutting down\n");
  server.stop();
  return 0;
}

// ---- status --------------------------------------------------------------

int cmd_status(int argc, char** argv) {
  const CommandInfo* command = find_command("status");
  const ParsedFlags flags = parse_flags(*command, argc, argv);
  if (!flags.positionals.empty()) usage_error(argv[0], command);
  if (flags.server.empty()) {
    std::fprintf(stderr,
                 "%s: status requires --server host:port (or FTNAV_SERVER)\n",
                 argv[0]);
    return 2;
  }
  try {
    TcpQueueClient client(flags.server, /*connect_attempts=*/4,
                          flags.auth_token);
    // One document, two renderings (status_doc.h): the plain-text
    // view and --json are built from the same struct so they can't
    // drift.
    ServerStatusDocument doc;
    doc.server = flags.server;
    doc.status = client.status();
    doc.metrics = client.stats();
    const std::string rendered = flags.json_schema
                                     ? render_status_json(doc)
                                     : render_status_text(doc);
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } catch (const TransportAuthError& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 1;
  }
  return 0;
}

// ---- run / submit / attach -----------------------------------------------

enum class LaunchMode { kRun, kSubmit, kAttach };

/// Default submission tag: scenario name + a digest of the canonical
/// parameter string, so identical submissions share a tag and any
/// parameter difference forces a fresh one.
std::string default_tag(const std::string& name, const ParamSet& params) {
  const std::string canonical = params.canonical();
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    io::fnv1a({canonical.data(), canonical.size()})));
  return name + "-" + digest;
}

int cmd_launch(LaunchMode mode, int argc, char** argv) {
  const CommandInfo* command = find_command(
      mode == LaunchMode::kRun ? "run"
      : mode == LaunchMode::kSubmit ? "submit" : "attach");
  ParsedFlags flags = parse_flags(*command, argc, argv);
  if (flags.positionals.size() != 1) {
    std::fprintf(stderr, "%s: %s takes exactly one %s\n", argv[0],
                 command->name,
                 mode == LaunchMode::kAttach ? "campaign tag"
                                             : "scenario name");
    usage_error(argv[0], command);
  }
  const std::string target = flags.positionals[0];
  const ScenarioRegistry& registry = ScenarioRegistry::instance();

  if (mode == LaunchMode::kRun) {
    if (flags.stop_after > 0 && flags.checkpoint.empty()) {
      std::fprintf(stderr, "--stop-after requires --checkpoint\n");
      return 2;
    }
    if (flags.resume && flags.checkpoint.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint\n");
      return 2;
    }
    if (flags.worker_id >= 0 && flags.queue_addr.empty()) {
      std::fprintf(stderr, "--worker-id requires --queue-addr\n");
      return 2;
    }
    if (flags.workers > 0 && (flags.resume || flags.stop_after > 0)) {
      std::fprintf(stderr, "--workers is incompatible with --resume and "
                           "--stop-after\n");
      return 2;
    }
  } else if (flags.server.empty()) {
    std::fprintf(stderr,
                 "%s: %s requires --server host:port (or FTNAV_SERVER)\n",
                 argv[0], command->name);
    return 2;
  }

  // Resolve the scenario and its parameters. run/submit configure from
  // defaults < --config JSON < FTNAV_* env < --param; attach rebuilds
  // the exact submitted configuration from the server's registration
  // (the canonical string re-parses to an identical set), so a
  // failover coordinator needs nothing but the tag.
  const ScenarioSpec* spec = nullptr;
  ParamSet params;
  std::string tag = flags.tag;
  if (mode == LaunchMode::kAttach) {
    try {
      TcpQueueClient client(flags.server, /*connect_attempts=*/8,
                            flags.auth_token);
      const CampaignServerStatus status = client.status();
      const CampaignRegistration* registration = nullptr;
      for (const CampaignRegistration& reg : status.campaigns)
        if (reg.tag == target) registration = &reg;
      if (registration == nullptr) {
        std::fprintf(stderr,
                     "%s: no campaign '%s' registered at %s "
                     "(try `%s status --server %s`)\n",
                     argv[0], target.c_str(), flags.server.c_str(),
                     argv[0], flags.server.c_str());
        return 1;
      }
      spec = registry.find(registration->scenario);
      if (spec == nullptr) {
        std::fprintf(stderr,
                     "%s: campaign '%s' runs scenario '%s', unknown to "
                     "this binary (version skew?)\n",
                     argv[0], target.c_str(),
                     registration->scenario.c_str());
        return 1;
      }
      params = spec->make_params();
      params.apply_kv_text(registration->params, ParamSource::kCli);
      tag = target;
    } catch (const TransportAuthError& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    } catch (const ParamError& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 1;
    }
  } else {
    spec = registry.find(target);
    if (spec == nullptr) {
      std::fprintf(stderr, "%s: unknown scenario '%s' (try `%s list`)\n",
                   argv[0], target.c_str(), argv[0]);
      return 2;
    }
    params = spec->make_params();
    try {
      if (!flags.config_path.empty())
        params.apply_json_file(flags.config_path);
      params.apply_env();
      for (const auto& [key, value] : flags.cli_params)
        params.set(key, value, ParamSource::kCli);
    } catch (const ParamError& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    }
  }
  // Diagnose typo'd FTNAV_* variables: everything set in this process
  // must be a declared harness knob or some scenario's parameter.
  warn_unknown_ftnav_vars(registry.known_param_env_names());

  ScenarioContext context;
  context.threads = flags.threads;
  if (flags.progress_every > 0)
    context.stream.progress_every_trials =
        static_cast<std::size_t>(flags.progress_every);
  context.stream.checkpoint_path = flags.checkpoint;
  context.stream.resume = flags.resume;
  if (flags.stop_after > 0)
    context.stream.stop_after_shards =
        static_cast<std::size_t>(flags.stop_after);

  // The lease-protocol knobs apply identically in every role.
  const auto apply_lease_knobs = [&](DistConfig& dist) {
    if (flags.lease_expiry >= 0.0)
      dist.lease_expiry_seconds = flags.lease_expiry;
    if (flags.poll_period > 0.0)
      dist.poll_period_seconds = flags.poll_period;
    if (flags.lease_batch >= 1) dist.lease_batch = flags.lease_batch;
  };

  // ---- worker mode: run leased shards into a partial checkpoint ----
  // Silent on stdout (the coordinator's output is the campaign's
  // output and must not interleave with worker chatter).
  if (mode == LaunchMode::kRun && flags.worker_id >= 0) {
    context.dist.worker_id = flags.worker_id;
    context.dist.queue_addr = flags.queue_addr;
    context.dist.auth_token = flags.auth_token;
    context.dist.queue_namespace = flags.tag;
    context.dist.fail_after_shards = flags.worker_fail_after;
    apply_lease_knobs(context.dist);
    context.stream = CampaignStreamConfig{};  // DistCampaign re-targets it
    try {
      (void)spec->factory(params)->run(context);
    } catch (const TransportAuthError& error) {
      // The diagnosed sibling of a silent lease expiry: the server
      // refused this worker's session. Same exit contract as any
      // other bad parameter (2).
      std::fprintf(stderr, "worker %d: %s\n", flags.worker_id,
                   error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "worker %d: error: %s\n", flags.worker_id,
                   error.what());
      return 1;
    }
    return 0;
  }

  const std::string scenario_name = spec->name;
  int worker_id_base = 0;

  // ---- submit: register the campaign, reserve fresh worker ids ----
  if (mode == LaunchMode::kSubmit) {
    if (tag.empty()) tag = default_tag(scenario_name, params);
    try {
      TcpQueueClient client(flags.server, /*connect_attempts=*/8,
                            flags.auth_token);
      client.register_campaign(tag, scenario_name, params.canonical());
      if (flags.workers > 0)
        worker_id_base = client.alloc_worker_ids(flags.workers);
    } catch (const TransportAuthError& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 1;
    }
    std::fprintf(stderr, "submitted: campaign '%s' (scenario %s) to %s\n",
                 tag.c_str(), scenario_name.c_str(), flags.server.c_str());
    if (flags.workers == 0) {
      std::fprintf(stderr,
                   "registered only (no --workers); drive it with: "
                   "%s attach %s --server %s --workers N\n",
                   argv[0], tag.c_str(), flags.server.c_str());
      return 0;
    }
  }
  if (mode == LaunchMode::kAttach && flags.workers > 0) {
    try {
      TcpQueueClient client(flags.server, /*connect_attempts=*/8,
                            flags.auth_token);
      worker_id_base = client.alloc_worker_ids(flags.workers);
    } catch (const TransportAuthError& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 2;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      return 1;
    }
  }

  // ---- coordinator mode: spawn workers, drain the queue, merge ----
  std::string queue_addr =
      mode == LaunchMode::kRun ? flags.queue_addr : flags.server;
  // `run`: the coordinator hosts the campaign server in-process (kept
  // alive through the finalize merge below), on loopback unless
  // --queue-addr names the bind -- without a token, anything that can
  // reach the port can lease shards. Submit and attach talk to the
  // standalone daemon instead.
  std::unique_ptr<CampaignServer> server;
  if (flags.workers > 0) {
    if (mode == LaunchMode::kRun) {
      try {
        server = std::make_unique<CampaignServer>(CampaignServerConfig{
            queue_addr.empty() ? "127.0.0.1:0" : queue_addr, std::string(),
            flags.auth_token});
        server->start();
        queue_addr = server->address();  // resolve a port-0 bind
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
      }
      std::fprintf(stderr, "distributed: %d workers, queue-addr=%s\n",
                   flags.workers, queue_addr.c_str());
    } else {
      std::fprintf(stderr,
                   "distributed: %d workers (ids %d..%d), server=%s\n",
                   flags.workers, worker_id_base,
                   worker_id_base + flags.workers - 1, queue_addr.c_str());
    }
    context.dist.workers = flags.workers;
    context.dist.queue_addr = queue_addr;
    context.dist.auth_token = flags.auth_token;
    context.dist.queue_namespace =
        mode == LaunchMode::kRun ? flags.tag : tag;
    context.dist.worker_id_base = worker_id_base;
    apply_lease_knobs(context.dist);

    // Workers get the *canonical* parameter set on their command line,
    // so every process binds byte-identical scenario configuration no
    // matter which sources configured the coordinator.
    DistCoordinator::Command worker_command;
    worker_command.argv = {argv[0], "run", scenario_name};
    const auto add = [&](const std::string& flag,
                         const std::string& value) {
      worker_command.argv.push_back(flag);
      worker_command.argv.push_back(value);
    };
    for (const ParamSpec& param : spec->params)
      add("--param", param.name + "=" + params.canonical_value(param.name));
    add("--threads", std::to_string(context.threads));
    add("--queue-addr", queue_addr);
    if (!context.dist.queue_namespace.empty())
      add("--tag", context.dist.queue_namespace);
    if (flags.lease_expiry >= 0.0) {
      char expiry[32];
      std::snprintf(expiry, sizeof expiry, "%.17g", flags.lease_expiry);
      add("--lease-expiry", expiry);
    }
    if (flags.poll_period > 0.0) {
      char period[32];
      std::snprintf(period, sizeof period, "%.17g", flags.poll_period);
      add("--poll-period", period);
    }
    if (flags.lease_batch >= 1)
      add("--lease-batch", std::to_string(flags.lease_batch));
    if (flags.worker_fail_after > 0)
      add("--worker-fail-after", std::to_string(flags.worker_fail_after));
    // The session token travels in the environment, never on the
    // command line (argv is world-readable in `ps`).
    if (!flags.auth_token.empty())
      worker_command.env.push_back("FTNAV_AUTH_TOKEN=" + flags.auth_token);

    try {
      const DistCoordinator coordinator(context.dist);
      coordinator.run([&](int id) {
        DistCoordinator::Command command = worker_command;
        command.argv.push_back("--worker-id");
        command.argv.push_back(std::to_string(worker_id_base + id));
        return command;
      });
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 1;
    }
    // Fall through: the run below merges the partial checkpoints and
    // finishes instantly with the workers' combined results.
  } else if (mode == LaunchMode::kAttach) {
    // Finalize-only attach: merge whatever the (possibly dead)
    // workers published and complete any remaining shards in this
    // process — still byte-identical to a single-process run.
    context.dist.workers = 1;
    context.dist.queue_addr = queue_addr;
    context.dist.auth_token = flags.auth_token;
    context.dist.queue_namespace = tag;
    apply_lease_knobs(context.dist);
  }

  if (flags.progress_every > 0) {
    context.stream.on_progress = [](const StreamProgress& p) {
      std::printf("progress: %zu/%zu trials (%.1f%%), %zu/%zu shards\n",
                  p.trials_done, p.trials_total, 100.0 * p.fraction(),
                  p.shards_done, p.shards_total);
      std::fflush(stdout);
    };
  }

  // The banner is a pure function of (scenario, parameters): stdout is
  // byte-identical between a plain run, any --workers/--threads
  // combination, and a submit/attach through the campaign server
  // (worker counts and service chatter go to stderr above).
  std::printf("scenario: %s\nparams: %s\n", scenario_name.c_str(),
              params.canonical().c_str());

  ScenarioResult result;
  try {
    result = spec->factory(params)->run(context);
  } catch (const CampaignInterrupted& interrupted) {
    std::printf("%s\n", interrupted.what());
    std::printf("re-run with --checkpoint %s --resume to finish\n",
                context.stream.checkpoint_path.c_str());
    return 3;
  } catch (const TransportAuthError& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  } catch (const ParamError& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 2;
  } catch (const std::exception& error) {
    // e.g. resume refused: checkpoint from a different configuration,
    // or a corrupt checkpoint file.
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::printf("%s", result.text.c_str());

  if (!flags.json_path.empty()) {
    std::ofstream out(flags.json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flags.json_path.c_str());
      return 1;
    }
    out << result.to_json();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Settle FTNAV_TRACE_DIR up front: with tracing enabled this
  // registers the exit-time flush, so every traced process (coordinator,
  // worker, server) leaves a trace.<pid>.json even if it exits before
  // hitting an instrumented span. A nullptr result costs nothing.
  ftnav::obs::trace();
  if (argc < 2) usage_error(argv[0]);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_usage(stdout, argv[0]);
    return 0;
  }
  try {
    if (command == "list") return cmd_list(argc, argv);
    if (command == "describe") return cmd_describe(argc, argv);
    if (command == "run") return cmd_launch(LaunchMode::kRun, argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "submit")
      return cmd_launch(LaunchMode::kSubmit, argc, argv);
    if (command == "status") return cmd_status(argc, argv);
    if (command == "attach")
      return cmd_launch(LaunchMode::kAttach, argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
    return 1;
  }
  std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0],
               command.c_str());
  usage_error(argv[0]);
}
