//! End-to-end tests of the `kertctl` operational CLI: simulate → build →
//! info/query/violation, driving the real binary.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn kertctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kertctl"))
        .args(args)
        .output()
        .expect("kertctl binary runs")
}

/// Run `kertctl`, killing it if it is still running after `secs`.
fn kertctl_within(args: &[&str], secs: u64) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kertctl"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kertctl binary runs");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child
        .try_wait()
        .expect("kertctl can be waited on")
        .is_none()
    {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child
        .wait_with_output()
        .expect("kertctl output is readable")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("kertctl-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_pipeline_ediamond() {
    let scenario = tmp("scenario.json");
    let model = tmp("model.json");

    // Simulate the test-bed.
    let out = kertctl(&[
        "simulate",
        "--ediamond",
        "--requests",
        "400",
        "--seed",
        "3",
        "--out",
        scenario.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(scenario.exists());

    // Build a discrete KERT-BN.
    let out = kertctl(&[
        "build",
        "--scenario",
        scenario.to_str().unwrap(),
        "--family",
        "kert",
        "--mode",
        "discrete",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Inspect it.
    let out = kertctl(&["info", "--model", model.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("family        : Kert"), "{stdout}");
    assert!(stdout.contains("nodes         : 7"), "{stdout}");
    assert!(stdout.contains("X2 -> X3"), "{stdout}");

    // Query the response-time posterior given a slow remote locator.
    let out = kertctl(&[
        "query",
        "--model",
        model.to_str().unwrap(),
        "--target",
        "6",
        "--given",
        "3=0.4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("posterior of D"), "{stdout}");
    assert!(stdout.contains("mean ="), "{stdout}");

    // Graphviz export.
    let out = kertctl(&["info", "--model", model.to_str().unwrap(), "--dot"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph kert_model"), "{stdout}");
    assert!(stdout.contains("->"), "{stdout}");

    // Violation probability.
    let out = kertctl(&[
        "violation",
        "--model",
        model.to_str().unwrap(),
        "--threshold",
        "0.8",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P(D > 0.8)"), "{stdout}");

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn random_environment_and_nrt_family() {
    let scenario = tmp("rand-scenario.json");
    let model = tmp("rand-model.json");

    let out = kertctl(&[
        "simulate",
        "--services",
        "8",
        "--requests",
        "200",
        "--out",
        scenario.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = kertctl(&[
        "build",
        "--scenario",
        scenario.to_str().unwrap(),
        "--family",
        "nrt",
        "--mode",
        "continuous",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = kertctl(&["info", "--model", model.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("family        : Nrt"), "{stdout}");
    assert!(stdout.contains("mode          : continuous"), "{stdout}");

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&model);
}

/// A discrete NRT-BN answers `query` and `violation` off its own junction
/// tree, and a node given twice is refused.
#[test]
fn discrete_nrt_family_answers_queries() {
    let scenario = tmp("nrt-scenario.json");
    let model = tmp("nrt-model.json");
    let run = |args: &[&str]| {
        let out = kertctl(args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (scenario_path, model_path) = (scenario.to_str().unwrap(), model.to_str().unwrap());
    run(&[
        "simulate",
        "--ediamond",
        "--requests",
        "400",
        "--seed",
        "5",
        "--out",
        scenario_path,
    ]);
    run(&[
        "build",
        "--scenario",
        scenario_path,
        "--family",
        "nrt",
        "--mode",
        "discrete",
        "--out",
        model_path,
    ]);

    // Header, mean, sd, then one row per state of D (5 bins).
    let stdout = run(&[
        "query", "--model", model_path, "--target", "6", "--given", "0=0.05", "--given", "3=0.4",
    ]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("posterior of D given"), "{stdout}");
    assert!(lines[1].contains("mean ="), "{stdout}");
    assert!(lines[2].contains("sd   ="), "{stdout}");
    assert_eq!(lines.len(), 3 + 5, "{stdout}");
    let mass: f64 = lines[3..]
        .iter()
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
        .sum();
    assert!((mass - 1.0).abs() < 1e-3, "{stdout}");

    let stdout = run(&[
        "violation",
        "--model",
        model_path,
        "--threshold",
        "0.8",
        "--given",
        "0=0.05",
    ]);
    assert!(stdout.starts_with("P(D > 0.8) = "), "{stdout}");
    assert!(stdout.contains("(E[D] = "), "{stdout}");

    let out = kertctl(&[
        "query", "--model", model_path, "--target", "6", "--given", "0=0.05", "--given", "0=0.2",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("more than once"), "{stderr}");

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown command.
    let out = kertctl(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = kertctl(&["simulate", "--services", "4"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --out"));

    // Bad evidence syntax.
    let model = tmp("never-built.json");
    let out = kertctl(&["query", "--model", model.to_str().unwrap(), "--target", "0"]);
    assert!(!out.status.success());

    // Help succeeds.
    let out = kertctl(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn oversized_discrete_models_are_refused_not_panicked() {
    // 30 services in 5 bins: the response node stays out of the cliques
    // (Eq. 4 is a lookup), but the services' own clique spans 5³⁰
    // configurations, more bytes than one allocation holds, so every table
    // is sized before any is built and the model is refused (exit 1, not a
    // panic).
    let scenario = tmp("oversized-scenario.json");
    let model = tmp("oversized-model.json");
    let out = kertctl(&[
        "simulate",
        "--services",
        "30",
        "--out",
        scenario.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = kertctl(&[
        "build",
        "--scenario",
        scenario.to_str().unwrap(),
        "--family",
        "kert",
        "--mode",
        "discrete",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // `serve` compiles before it binds; the deadline only guards against
    // a daemon that starts instead of refusing.
    for args in [
        vec!["query", "--model", model.to_str().unwrap(), "--target", "0"],
        vec!["serve", "--model", model.to_str().unwrap()],
    ] {
        let out = kertctl_within(&args, 60);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{}: {stderr}", args[0]);
        assert!(
            stderr.contains("a table over 30 variables needs 9.313e20 entries"),
            "{}: {stderr}",
            args[0]
        );
    }

    let _ = std::fs::remove_file(&scenario);
    let _ = std::fs::remove_file(&model);
}

#[test]
fn unknown_flags_are_refused_before_any_work() {
    // A retired flag: folding has no window any more.
    let out = kertctl(&["serve", "--coalesce-us", "500"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --coalesce-us for serve"),
        "{stderr}"
    );

    // A misspelled flag on another subcommand: refused, nothing written.
    let scenario = tmp("misspelled.json");
    let out = kertctl(&[
        "simulate",
        "--ediamond",
        "--requets",
        "400",
        "--out",
        scenario.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --requets for simulate"),
        "{stderr}"
    );
    assert!(!scenario.exists());
}

/// Every `kertctl` command line in the README and the CI workflow, as
/// `(subcommand, args)`: `… --bin kertctl -- <subcommand> <args>`, with
/// `\`-continued lines joined and workflow expressions filled in.
fn documented_invocations() -> Vec<(String, Vec<String>)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for doc in ["README.md", ".github/workflows/ci.yml"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for line in text.replace("\\\n", " ").lines() {
            let Some((_, invocation)) = line.split_once("--bin kertctl -- ") else {
                continue;
            };
            let invocation = invocation.replace("${{ matrix.seed }}", "1");
            let mut tokens = invocation
                .split_whitespace()
                .take_while(|t| !matches!(*t, "&" | "&&" | "|" | "#"))
                .map(str::to_string);
            let subcommand = tokens.next().expect("a subcommand");
            found.push((subcommand, tokens.collect()));
        }
    }
    found
}

#[test]
fn every_documented_command_line_parses() {
    let invocations = documented_invocations();
    assert!(invocations.len() >= 30, "found only {invocations:?}");
    for (subcommand, args) in &invocations {
        // Flags are checked left to right before any work, so when every
        // documented flag is accepted the appended sentinel is the first
        // one refused.
        let mut argv = vec![subcommand.as_str()];
        argv.extend(args.iter().map(String::as_str));
        argv.extend(["--not-a-flag", "1"]);
        let out = kertctl(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag --not-a-flag for {subcommand}")),
            "`kertctl {}` does not parse: {stderr}",
            argv.join(" ")
        );
    }
}
