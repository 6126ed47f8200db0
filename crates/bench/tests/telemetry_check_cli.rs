//! The `telemetry_check` exit-code contract that CI scripts rely on:
//! **0** every check passed, **1** a check failed, **2** usage error.

use std::path::PathBuf;
use std::process::Command;

/// Writes a one-event JSONL trace and a two-sample Prometheus export
/// into a fresh directory and returns their paths.
fn exports(case: &str) -> (PathBuf, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("telemetry_check_cli_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("trace.jsonl");
    let prom = dir.join("metrics.prom");
    std::fs::write(&jsonl, "{\"type\":\"counter\",\"name\":\"qac_x_total\"}\n").unwrap();
    std::fs::write(
        &prom,
        "# TYPE qac_x_total counter\n\
         qac_x_total 5\n\
         qac_speedup{workload=\"figure2\"} 3.5\n",
    )
    .unwrap();
    (jsonl, prom)
}

/// Runs `telemetry_check` on `case`'s exports plus `flags` and returns
/// its exit code.
fn exit_code(case: &str, flags: &[&str]) -> i32 {
    let (jsonl, prom) = exports(case);
    let status = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .arg(&jsonl)
        .arg(&prom)
        .args(flags)
        .output()
        .expect("telemetry_check runs")
        .status;
    std::fs::remove_dir_all(jsonl.parent().unwrap()).unwrap();
    status.code().expect("telemetry_check exits normally")
}

#[test]
fn passing_checks_exit_zero() {
    let flags = [
        "--counter-max",
        "qac_x_total=5",
        "--gauge-min",
        "qac_speedup{workload=\"figure2\"}=3",
    ];
    assert_eq!(exit_code("pass", &flags), 0);
}

#[test]
fn exceeded_counter_budget_exits_one() {
    assert_eq!(exit_code("counter", &["--counter-max", "qac_x_total=4"]), 1);
}

#[test]
fn unmet_gauge_floor_exits_one() {
    let flags = ["--gauge-min", "qac_speedup{workload=\"figure2\"}=4"];
    assert_eq!(exit_code("gauge", &flags), 1);
}

#[test]
fn retired_baseline_flags_are_usage_errors() {
    assert_eq!(exit_code("baseline", &["--baseline"]), 2);
    assert_eq!(exit_code("budget", &["--budget", "qac_x_total=1.3"]), 2);
}
