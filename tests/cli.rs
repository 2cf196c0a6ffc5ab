//! End-to-end tests of the `cafactor` CLI binary, including Matrix Market
//! round trips through temporary files.

use std::process::Command;

fn cafactor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cafactor"))
}

#[test]
fn factor_lu_random_reports_residual() {
    let out = cafactor()
        .args(["factor", "lu", "--random", "400", "80", "--b", "20", "--tr", "4", "--threads", "2"])
        .output()
        .expect("run cafactor");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CALU 400x80"), "{text}");
    assert!(text.contains("residual="), "{text}");
}

#[test]
fn factor_qr_writes_r_and_solve_reads_matrices() {
    let dir = std::env::temp_dir().join("cafactor_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let a_path = dir.join("a.mtx");
    let r_path = dir.join("r.mtx");

    // Write a random square system with the library, factor via CLI.
    let a = ca_factor::matrix::random_uniform(60, 60, &mut ca_factor::matrix::seeded_rng(3));
    ca_factor::matrix::io::write_matrix_market_file(&a_path, &a).unwrap();

    let out = cafactor()
        .args([
            "factor",
            "qr",
            "--input",
            a_path.to_str().unwrap(),
            "--b",
            "16",
            "--output",
            r_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cafactor");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let r: ca_factor::Matrix = ca_factor::matrix::io::read_matrix_market_file(&r_path).unwrap();
    assert_eq!(r.nrows(), 60);
    // R upper triangular.
    assert_eq!(r[(5, 2)], 0.0);

    // Solve with implicit all-ones RHS and refinement.
    let out = cafactor()
        .args(["solve", "--input", a_path.to_str().unwrap(), "--refine"])
        .output()
        .expect("run cafactor");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rcond"), "{text}");
    assert!(text.contains("refinement:"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn info_prints_norms() {
    let out = cafactor()
        .args(["info", "--random", "50", "50"])
        .output()
        .expect("run cafactor");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("‖A‖₁"));
    assert!(text.contains("rcond"));
}

#[test]
fn factor_lu_profile_reports_and_writes_trace() {
    let dir = std::env::temp_dir().join("cafactor_cli_profile");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let out = cafactor()
        .args(["factor", "lu", "--random", "300", "90", "--b", "30", "--tr", "4", "--threads", "2"])
        .arg(format!("--profile={}", trace_path.display()))
        .output()
        .expect("run cafactor");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("profile: priority-queue scheduler"), "{text}");
    assert!(text.contains("scheduling efficiency"), "{text}");
    assert!(text.contains("dispatch latency"), "{text}");
    assert!(text.contains("GFlop/s"), "{text}");
    assert!(text.contains("lookahead:"), "{text}");
    // The emitted trace is valid Chrome-trace JSON with spans, flow events,
    // counters, and thread-name metadata.
    let raw = std::fs::read_to_string(&trace_path).expect("trace file written");
    let v: serde_json::Value = serde_json::from_str(&raw).expect("trace parses");
    let arr = v.as_array().unwrap();
    for ph in ["X", "M", "s", "f", "C"] {
        assert!(arr.iter().any(|e| e["ph"] == ph), "missing ph {ph}");
    }
    assert!(arr.iter().any(|e| e["name"] == "thread_name"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn precision_f32_is_honoured_by_factor_and_refused_elsewhere() {
    // `factor` runs the same DAG path in either precision: threads and
    // profile are honoured, the trace parses.
    let dir = std::env::temp_dir().join("cafactor_cli_f32");
    std::fs::create_dir_all(&dir).unwrap();
    for (sub, name) in [("lu", "CALU[f32] 300x90"), ("qr", "CAQR[f32] 300x90")] {
        let trace_path = dir.join(format!("{sub}.json"));
        let out = cafactor()
            .args(["factor", sub, "--random", "300", "90", "--b", "30", "--tr", "4"])
            .args(["--precision", "f32", "--threads", "2"])
            .arg(format!("--profile={}", trace_path.display()))
            .output()
            .expect("run cafactor");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        for want in [name, "threads=2", "tasks=", "profile: priority-queue scheduler"] {
            assert!(text.contains(want), "{sub}: missing {want:?} in {text}");
        }
        let raw = std::fs::read_to_string(&trace_path).expect("trace file written");
        let v: serde_json::Value = serde_json::from_str(&raw).expect("trace parses");
        assert!(v.as_array().unwrap().iter().any(|e| e["ph"] == "X"), "{sub}: no spans");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The f64-only commands say so instead of silently ignoring the flag.
    for cmd in [
        "serve --jobs 2 --precision f32",
        "verify lu --random 64 64 --precision f32",
        "solve --random 64 64 --precision f32",
    ] {
        let out = cafactor().args(cmd.split_whitespace()).output().expect("run cafactor");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{cmd}: {err}");
        assert!(err.starts_with("cafactor: ") && err.contains("f64"), "{cmd}: {err}");
    }
}

#[test]
fn verify_subcommand_proves_soundness_and_runs_checked() {
    let out = cafactor()
        .args(["verify", "lu", "--random", "128", "128", "--b", "32", "--threads", "2"])
        .output()
        .expect("run cafactor");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("static verify lu"), "{text}");
    assert!(text.contains("static verify tiled LU baseline"), "{text}");
    assert!(text.contains("static verify blocked LU baseline"), "{text}");
    // The lookahead rule is CALU's claim: a baseline that trips it on
    // purpose (tiled) or is fork-join (blocked) is reported without it.
    assert!(!text.contains("lookahead-of-1 is not in effect"), "{text}");
    assert!(text.contains("conflicting pair(s) ordered"), "{text}");
    assert!(text.contains("checked CALU run clean"), "{text}");

    let out = cafactor()
        .args(["verify", "qr", "--random", "200", "48", "--b", "16", "--tree", "flat"])
        .output()
        .expect("run cafactor");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("static verify qr"), "{text}");
    assert!(text.contains("static verify tiled QR baseline"), "{text}");
    assert!(text.contains("static verify blocked QR baseline"), "{text}");
    assert!(text.contains("checked CAQR run clean"), "{text}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = cafactor().args(["bogus"]).output().expect("run cafactor");
    assert!(!out.status.success());
    // An unknown (or removed) flag: usage text, exit 2.
    let out = cafactor()
        .args(["verify", "lu", "--random", "64", "64", "--no-such-flag=rect"])
        .output()
        .expect("run cafactor");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_chaos_drill_survives_and_reports_recovery() {
    // A seeded chaos drill through the CLI: every job must complete (exit
    // 0) and the recovery counter lines must appear in the report.
    let out = cafactor()
        .args([
            "serve", "--jobs", "8", "--threads", "2", "--b", "16", "--retry", "3", "--chaos=7",
        ])
        .output()
        .expect("run cafactor");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovery: job_retries="), "{text}");
    assert!(text.contains("injected fail/panic/delay/corrupt"), "{text}");
    assert!(text.contains("completed=8"), "{text}");
}

#[test]
fn serve_deadline_exit_code_is_distinct() {
    // Certain fault injection with a tiny deadline and no batching: jobs
    // miss their deadlines, and the CLI surfaces the dedicated exit code 11.
    let out = cafactor()
        .args([
            "serve", "--jobs", "4", "--threads", "1", "--b", "16", "--deadline", "1",
        ])
        .output()
        .expect("run cafactor");
    // With a 1 ms deadline at least one 256² job misses; the worst outcome
    // ranking maps deadline misses to exit 11 (unless every job somehow
    // finished in time, in which case success is also legal).
    let code = out.status.code();
    assert!(
        code == Some(11) || code == Some(0),
        "unexpected exit {code:?}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    if code == Some(11) {
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("deadline"), "{err}");
    }
}

#[test]
fn serve_metrics_writes_prometheus_snapshot_and_top_reads_it() {
    let dir = std::env::temp_dir().join("cafactor_cli_metrics");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let m_path = dir.join("m.prom");
    let out = cafactor()
        .args(["serve", "--jobs", "6", "--threads", "2", "--b", "16"])
        .arg(format!("--metrics={}", m_path.display()))
        .args(["--metrics-interval", "50", "--flight-recorder", "--tenants", "2"])
        .output()
        .expect("run cafactor");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics snapshot written"), "{text}");

    // The Prometheus text has headers and per-tenant serve families.
    let prom = std::fs::read_to_string(&m_path).expect("prom snapshot written");
    assert!(prom.contains("# TYPE ca_serve_jobs_submitted_total counter"), "{prom}");
    assert!(prom.contains("tenant=\"tenant-0\""), "{prom}");
    assert!(prom.contains("tenant=\"tenant-1\""), "{prom}");
    assert!(prom.contains("ca_serve_exec_seconds_bucket"), "{prom}");
    assert!(prom.contains("ca_sched_tasks_dispatched_total"), "{prom}");

    // The JSON sibling parses back into a registry snapshot.
    let json =
        std::fs::read_to_string(dir.join("m.prom.json")).expect("json sibling written");
    let snap: ca_factor::telemetry::RegistrySnapshot =
        serde_json::from_str(&json).expect("snapshot json parses");
    assert!(!snap.families.is_empty());

    // `cafactor top` pretty-prints either file name.
    let out = cafactor().args(["top", m_path.to_str().unwrap()]).output().expect("run top");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ca_serve_jobs_completed_total"), "{text}");
    assert!(text.contains("series"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_shed_storm_bounds_flight_dumps() {
    // A shed storm: 16 jobs into a 2-slot queue on one worker with the
    // shed-oldest policy. Every shed triggers a flight dump, but the
    // --max-dumps cap must bound the files written, and each written dump
    // must be a valid chrome-trace fragment.
    let dir = std::env::temp_dir().join("cafactor_cli_shed_dumps");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = cafactor()
        .args([
            "serve", "--jobs", "16", "--threads", "1", "--b", "16", "--capacity", "2",
            "--policy", "shed", "--chaos=3", "--flight-recorder", "--max-dumps", "2",
        ])
        .args(["--dump-dir", dir.to_str().unwrap()])
        .output()
        .expect("run cafactor");
    // Sheds map to exit code 12 via the worst-outcome ranking; under chaos
    // a terminal failure (6) or detected corruption (10) can outrank them,
    // and 0 only if the single worker somehow kept up with nothing shed.
    let code = out.status.code();
    assert!(
        matches!(code, Some(0 | 6 | 10 | 12)),
        "unexpected exit {code:?}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dumps: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dump dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .filter(|f| f.starts_with("flight-"))
        .collect();
    assert!(dumps.len() <= 2, "max-dumps cap violated: {dumps:?}");
    if code == Some(12) {
        assert!(!dumps.is_empty(), "a shed storm must leave at least one dump");
    }
    for f in &dumps {
        assert!(f.ends_with(".json"), "{f}");
        let raw = std::fs::read_to_string(dir.join(f)).expect("dump readable");
        let v: serde_json::Value = serde_json::from_str(&raw).expect("dump parses");
        assert!(v.get("trigger").is_some(), "{f} missing trigger");
        assert!(v["traceEvents"].as_array().is_some(), "{f} missing traceEvents");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn singular_input_exits_with_breakdown_code() {
    // An exactly-singular system must produce the ZeroPivot exit code (4)
    // and name the breakdown column on stderr, not panic or emit NaNs.
    let dir = std::env::temp_dir().join("cafactor_cli_singular");
    std::fs::create_dir_all(&dir).unwrap();
    let a_path = dir.join("singular.mtx");
    let n = 24;
    let mut a = ca_factor::matrix::random_uniform(n, n, &mut ca_factor::matrix::seeded_rng(9));
    for i in 0..n {
        a[(i, 5)] = 0.0;
    }
    ca_factor::matrix::io::write_matrix_market_file(&a_path, &a).unwrap();

    for cmd in [&["solve"][..], &["factor", "lu"][..]] {
        let out = cafactor()
            .args(cmd)
            .args(["--input", a_path.to_str().unwrap(), "--b", "6"])
            .output()
            .expect("run cafactor");
        assert_eq!(out.status.code(), Some(4), "{cmd:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("zero pivot"), "{cmd:?}: {err}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_valued_flags_exit_2_with_a_one_line_message() {
    // Each of these used to reach a library assertion and die with a
    // backtrace (exit 101); they are usage errors like any other bad flag.
    const FAN_IN: &str = "the --tree fan-in must be at least 2";
    for (cmd, complaint) in [
        ("factor lu --random 64 64 --threads 0", "--threads must be at least 1"),
        ("factor lu --random 64 64 --tr 0", "--tr must be at least 1"),
        ("factor lu --random 64 64 --b 0", "--b must be at least 1"),
        ("factor lu --random 0 0", "the matrix must be non-empty (got 0x0)"),
        ("factor lu --random 64 64 --b 8 --tr 4 --tree kary:0", FAN_IN),
        ("factor lu --random 64 64 --b 8 --tr 4 --tree kary:1", FAN_IN),
        ("factor lu --random 64 64 --b 8 --tr 4 --tree hybrid:0", FAN_IN),
        ("factor lu --random 64 64 --b 8 --tr 4 --tree hybrid:1", FAN_IN),
        ("serve --jobs 2 --capacity 0", "--capacity must be at least 1"),
        ("serve --jobs 2 --threads 0", "--threads must be at least 1"),
    ] {
        let out = cafactor().args(cmd.split_whitespace()).output().expect("run cafactor");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.trim_end(), format!("cafactor: {complaint}"), "{cmd}");
    }
}
