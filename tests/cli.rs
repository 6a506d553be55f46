//! The `asched` binary end to end: each program goes in on stdin, the
//! run must exit 0 and print the `--stats` summary line for its kind
//! (a loop's steady state, a trace's utilization) next to a timeline.

use asched::ir::format_program;
use asched::workloads::fixtures::FIG3_ASM;
use asched::workloads::kernels;
use std::io::Write;
use std::process::{Command, Stdio};

/// Run `asched --stats --timeline -` on `program` and return its stdout.
fn run_cli(program: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_asched"))
        .args(["--stats", "--timeline", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("asched starts");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(program.as_bytes())
        .expect("program written");
    let out = child.wait_with_output().expect("asched finishes");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "asched exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("# timeline"), "no timeline in:\n{stdout}");
    stdout
}

fn assert_has_line(stdout: &str, line: &str) {
    assert!(
        stdout.lines().any(|l| l == line),
        "missing `{line}` in:\n{stdout}"
    );
}

/// Figure 3's loop at the defaults (window 4, 32 iterations): the
/// anticipatory order sustains the paper's 6 cycles per iteration.
#[test]
fn figure_3_loop_reports_its_steady_state() {
    let out = run_cli(FIG3_ASM);
    assert_has_line(
        &out,
        "# 32 iterations: 190 cycles; steady state 6.00 cycles/iteration",
    );
}

/// A two-block loop goes through Section 5.1 and reports the period of
/// the whole trace body.
#[test]
fn multi_block_loop_reports_its_steady_state() {
    let out = run_cli(&format_program(&kernels::wrap_loop()));
    assert_has_line(
        &out,
        "# 32 iterations: 351 cycles; steady state 11.00 cycles/iteration",
    );
}

/// A trace reports its cycles, instruction count, utilization and
/// stalls.
#[test]
fn trace_reports_its_utilization() {
    let out = run_cli(&format_program(&kernels::expr_trace()));
    assert_has_line(
        &out,
        "# 20 cycles, 12 instructions, utilization 60.0%, 8 stall cycles",
    );
}
