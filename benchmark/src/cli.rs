//! The command line.
//!
//! ```text
//! tm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload in this process; the last line of standard output is
//!     the result object of the run contract (BENCHMARK.json's command).
//! tm-benchmark run --seed <u64> [--seed <u64>…] [--seconds <s>] [--trace] [--smoke] [--out <file>]
//!     All seven workloads, each in a fresh child process, per seed; with
//!     --trace also each workload's traced pass, ladder and probes. Writes
//!     a result file and exits non-zero on any wrong answer.
//! tm-benchmark compare <a.json> <b.json> [--benchmark-json <file>]
//!     Apply BENCHMARK.json's bounds to two result files.
//! tm-benchmark manifest
//!     Print BENCHMARK.json as the metric catalogue defines it.
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::compare;
use crate::json::{obj, Json};
use crate::metrics::{DURABLE_ONLY, END_TO_END, PER_LAYER, WORKLOAD_WHY};
use crate::run::{self, Config};
use crate::workloads::{self, Workload};

/// Measured seconds of one run when `--seconds` is not given; equals
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;
/// Measured seconds of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.12;

const USAGE: &str = "usage:
  tm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>] [--detail <file>]
  tm-benchmark run --seed <u64> [--seed <u64>...] [--seconds <s>] [--trace] [--smoke] [--out <file>]
  tm-benchmark compare <a.json> <b.json> [--benchmark-json <file>]
  tm-benchmark manifest
workloads: serial_prepared adhoc_churn concurrent_single concurrent_disjoint concurrent_contended served_batch durable_log";

/// Where traces, results and WAL directories go: `benchmark/out` of the
/// checkout the command runs in, else next to this package's manifest.
pub fn default_out() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// `BENCHMARK.json`, from the metric catalogue — the file at the repository
/// root is this, and a self-test keeps it so.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        ("command", command.to_vec().into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", DEFAULT_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|(name, why)| obj([("name", (*name).into()), ("why", (*why).into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Every metric with what it is and — for layer metrics — how it is
/// measured and which end-to-end metric it should move, so a result file
/// explains itself.
fn glossary() -> Json {
    let e2e = END_TO_END.iter().chain(&DURABLE_ONLY).map(|m| {
        obj([
            ("name", m.name.into()),
            ("unit", m.unit.into()),
            ("what", m.what.into()),
        ])
    });
    let layers = PER_LAYER.iter().map(|m| {
        obj([
            ("name", m.name.into()),
            ("unit", m.unit.into()),
            ("how", m.how.into()),
            ("moves", m.moves.into()),
        ])
    });
    obj([
        ("end_to_end", Json::Arr(e2e.collect())),
        ("per_layer", Json::Arr(layers.collect())),
    ])
}

/// `--name value` pairs and bare flags, in order.
struct Args<'a> {
    rest: &'a [String],
}

impl<'a> Args<'a> {
    fn values(&self, name: &str) -> Vec<&'a str> {
        self.rest
            .windows(2)
            .filter(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .collect()
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).into_iter().next_back()
    }

    fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }
}

/// Entry point; `args` excludes the program name.
pub fn main(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&Args { rest: &args[1..] }),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest().pretty());
            Ok(true)
        }
        Some(a) if a.starts_with("--") && a != "--help" => run_one(&Args { rest: args }),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Print a run's metrics by name with their units, then whatever it found
/// wrong.
fn print_detail(detail: &Json) {
    let section = |name: &str| detail.get(name).and_then(Json::as_obj).unwrap_or(&[]);
    let unbounded = detail
        .get("lat_p99_us")
        .map(|m| ("lat_p99_us (unbounded)".to_owned(), m.clone()));
    for (name, m) in section("metrics")
        .iter()
        .chain(section("durable_only"))
        .chain(&unbounded)
    {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<34} {value:>18.4} {unit}");
    }
    for list in ["problems", "errors"] {
        for p in detail.get(list).and_then(Json::as_arr).unwrap_or(&[]) {
            println!("  {list}: {}", p.as_str().unwrap_or("?"));
        }
    }
}

/// The run contract's mode: one workload, in this process.
fn run_one(args: &Args<'_>) -> Result<bool, String> {
    let name = args.value("--workload").ok_or(USAGE)?;
    let workload =
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let smoke = args.flag("--smoke");
    let trace = match args.value("--trace") {
        Some("1") => true,
        Some("0") | None => false,
        Some(other) => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let cfg = Config {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(1),
        seconds: args.parsed("--seconds")?.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace,
        smoke,
        out: args.value("--out").map_or_else(default_out, PathBuf::from),
        flip_verdict: args.flag("--flip-verdict"),
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err(format!("--seconds: {} is outside (0, 60]", cfg.seconds));
    }
    let outcome = run::run(&cfg)?;
    println!(
        "{} seed {} {:.2} s {} ({} clients of {} processors{})",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        if trace {
            "traced pass + ladder + probes"
        } else {
            "end-to-end pass"
        },
        workload.clients(workloads::available_clients()),
        workloads::nproc(),
        if smoke {
            ", SMOKE sizes: not a result"
        } else {
            ""
        },
    );
    print_detail(&outcome.detail);
    if let Some(path) = args.value("--detail") {
        std::fs::write(path, outcome.detail.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.line.compact());
    Ok(outcome.correct)
}

/// One child process per (seed, workload, pass); returns its detail.
fn child(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: &Path,
) -> Result<Json, String> {
    let detail = out.join(format!(
        "detail-{}-{}-{}.json",
        w.name(),
        seed,
        u8::from(trace)
    ));
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--out")
    .arg(out)
    .arg("--detail")
    .arg(&detail)
    .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let text = std::fs::read_to_string(&detail);
    let _ = std::fs::remove_file(&detail);
    let code = output.status.code();
    // 1 = ran, but answered wrongly: its detail says where.
    if !matches!(code, Some(0 | 1)) {
        return Err(format!(
            "{} seed {seed} trace {}: child exited with {code:?}\n{}",
            w.name(),
            u8::from(trace),
            String::from_utf8_lossy(&output.stdout)
        ));
    }
    let mut detail = Json::parse(&text.map_err(|e| format!("{}: {e}", detail.display()))?)?;
    if let Json::Obj(members) = &mut detail {
        members.insert(1, ("seed".to_owned(), seed.into()));
    }
    Ok(detail)
}

fn value_of(detail: &Json, section: &str, name: &str) -> Option<f64> {
    detail.get(section)?.get(name)?.get("value")?.as_f64()
}

/// `run`: every workload in a fresh child process.
fn run_all(args: &Args<'_>) -> Result<bool, String> {
    let seeds: Vec<u64> = args
        .values("--seed")
        .into_iter()
        .map(|s| s.parse().map_err(|_| format!("--seed: cannot read {s:?}")))
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err(format!("run: --seed is required\n{USAGE}"));
    }
    let smoke = args.flag("--smoke");
    let trace = args.flag("--trace");
    let seconds = args.parsed("--seconds")?.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let out_dir = default_out();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut runs = Vec::new();
    let mut correct = true;
    for &seed in &seeds {
        for w in workloads::ALL {
            for pass in [false, true] {
                if pass && !trace {
                    continue;
                }
                let detail = child(&exe, w, seed, seconds, pass, smoke, &out_dir)?;
                let ok = detail.get("correct") == Some(&Json::Bool(true));
                correct &= ok;
                println!(
                    "{} seed {seed} {}{}",
                    w.name(),
                    if pass {
                        "traced pass + ladder + probes"
                    } else {
                        "end-to-end pass"
                    },
                    if ok { "" } else { "  ** WRONG ANSWERS **" }
                );
                print_detail(&detail);
                runs.push(detail);
            }
        }
        // The two derived figures that need more than one workload.
        let find = |name: &str, traced: bool| {
            runs.iter().rev().find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(name)
                    && r.get("trace") == Some(&Json::Bool(traced))
                    && r.get("seed").and_then(Json::as_f64) == Some(seed as f64)
            })
        };
        let rate = |name: &str| find(name, false).and_then(|r| value_of(r, "metrics", "tx_per_s"));
        if let (Some(serial), Some(single), Some(disjoint)) = (
            rate("serial_prepared"),
            rate("concurrent_single"),
            rate("concurrent_disjoint"),
        ) {
            println!("seed {seed}: core.scaling_ratio from the workloads = {:.4} (base {single:.0} tx/s)", disjoint / single);
            if let Some(own) = find("concurrent_single", true)
                .and_then(|r| value_of(r, "metrics", "core.concurrent_self_ns"))
            {
                let gap = 1e9 / single - 1e9 / serial;
                println!(
                    "seed {seed}: concurrent_single − serial_prepared = {gap:.0} ns/tx; core.concurrent_self_ns = {own:.0} ns ({:.2} of the gap)",
                    own / gap
                );
            }
        }
    }
    if smoke {
        println!("SMOKE sizes: these numbers are not results");
    }
    let file = obj([
        ("benchmark", "tm-benchmark".into()),
        ("smoke", smoke.into()),
        ("seconds", seconds.into()),
        ("seeds", seeds.clone().into()),
        ("glossary", glossary()),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args.value("--out").map_or_else(
        || {
            let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
            out_dir.join(format!("run-seed{}.json", seeds.join("-")))
        },
        PathBuf::from,
    );
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare`: exit 0 when nothing regressed.
fn compare_files(args: &[String]) -> Result<bool, String> {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err(format!("compare: two result files are required\n{USAGE}"));
    };
    let benchmark_json = Args { rest: args }.value("--benchmark-json").map_or_else(
        || {
            let here = PathBuf::from("BENCHMARK.json");
            if here.exists() {
                here
            } else {
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
            }
        },
        PathBuf::from,
    );
    let bounds = compare::bounds(&read_json(&benchmark_json)?)?;
    let rows = compare::compare(
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
        &bounds,
    )?;
    print!("{}", compare::render(&rows));
    let count = |v: compare::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved (base: {a})",
        count(compare::Verdict::Improved),
        count(compare::Verdict::Unchanged),
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
    );
    Ok(count(compare::Verdict::Regressed) == 0)
}
