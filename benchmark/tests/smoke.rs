//! `run --smoke` drives all seven workloads, the ladder and the traced
//! pass end to end through the real binary; a flipped expectation makes
//! the command fail.

use std::process::Command;
use std::time::Instant;

use tm_benchmark::json::Json;
use tm_benchmark::metrics::{END_TO_END, PER_LAYER};
use tm_benchmark::workloads::ALL;

const EXE: &str = env!("CARGO_BIN_EXE_tm-benchmark");

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn smoke_run_drives_every_workload_the_ladder_and_the_traced_pass() {
    let dir = scratch("smoke-run");
    let out = dir.join("result.json");
    let t0 = Instant::now();
    let status = Command::new(EXE)
        .args(["run", "--seed", "1", "--smoke", "--trace", "--out"])
        .arg(&out)
        .current_dir(&dir)
        .status()
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(status.success(), "smoke run failed");
    // The 20 s budget is for the optimised build; `cargo test` without
    // `--release` runs the product crates unoptimised.
    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs_f64() < 20.0, "smoke run took {elapsed:?}");
    }
    let result = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(result.get("smoke"), Some(&Json::Bool(true)));
    let runs = result.get("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 2 * ALL.len());
    for run in runs {
        assert_eq!(
            run.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            run.compact()
        );
        let traced = run.get("trace") == Some(&Json::Bool(true));
        let metrics = run.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        if traced {
            assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        } else {
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            for (name, m) in metrics {
                assert!(
                    m.get("value").unwrap().as_f64().unwrap() > 0.0,
                    "{name} is never 0"
                );
            }
        }
        let env = run.get("environment").unwrap();
        for key in ["nproc", "clients", "commit", "rustc", "seed"] {
            assert!(env.get(key).is_some(), "environment.{key}");
        }
    }
}

#[test]
fn a_flipped_expectation_fails_the_command() {
    let dir = scratch("smoke-flip");
    let run = |flip: bool| {
        let mut cmd = Command::new(EXE);
        cmd.args([
            "--workload",
            "serial_prepared",
            "--seed",
            "1",
            "--seconds",
            "0.05",
            "--trace",
            "0",
            "--smoke",
            "--out",
        ])
        .arg(&dir)
        .current_dir(&dir);
        if flip {
            cmd.arg("--flip-verdict");
        }
        let out = cmd.output().unwrap();
        let last = String::from_utf8(out.stdout)
            .unwrap()
            .lines()
            .last()
            .unwrap()
            .to_owned();
        (out.status.code(), Json::parse(&last).unwrap())
    };
    let (code, line) = run(false);
    assert_eq!(
        (code, line.get("correct")),
        (Some(0), Some(&Json::Bool(true)))
    );
    let (code, line) = run(true);
    assert_eq!(code, Some(1), "a wrong verdict must fail the command");
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap() >= 1.0);
}

#[test]
fn a_malformed_command_prints_no_result() {
    // Unknown workloads and malformed arguments exit non-zero without a
    // result line.
    let out = Command::new(EXE)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
