//! `asched-serve` — run the scheduling service.
//!
//! ```text
//! asched-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!              [--deadline-ms MS] [--cache N] [--cache-file FILE]
//!              [--flight N] [--run-for SECS] [--trace FILE]
//! ```
//!
//! Prints `listening on ADDR` once bound. Drains gracefully when stdin
//! reaches EOF (pipe-close / Ctrl-D — the portable stand-in for
//! SIGTERM) or when `--run-for` expires, whichever comes first; a
//! final metrics document goes to stderr on the way out.

use std::io::{BufWriter, Read};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use asched_obs::{JsonlRecorder, NullRecorder, Recorder};
use asched_serve::{Server, ServerConfig};

struct Args {
    cfg: ServerConfig,
    run_for: Option<Duration>,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ServerConfig::default(),
        run_for: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.cfg.addr = val("--addr")?,
            "--workers" => {
                args.cfg.workers = val("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                args.cfg.queue_capacity = val("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--deadline-ms" => {
                args.cfg.deadline_ms = val("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--cache" => {
                args.cfg.cache_capacity = val("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--cache-file" => args.cfg.cache_file = Some(val("--cache-file")?.into()),
            "--flight" => {
                args.cfg.flight_capacity = val("--flight")?
                    .parse()
                    .map_err(|e| format!("--flight: {e}"))?
            }
            "--run-for" => {
                let secs: u64 = val("--run-for")?
                    .parse()
                    .map_err(|e| format!("--run-for: {e}"))?;
                args.run_for = Some(Duration::from_secs(secs));
            }
            "--trace" => args.trace = Some(val("--trace")?),
            "--help" | "-h" => {
                println!(
                    "usage: asched-serve [--addr HOST:PORT] [--workers N] [--queue N]\n\
                     \x20                   [--deadline-ms MS] [--cache N] [--cache-file FILE]\n\
                     \x20                   [--flight N] [--run-for SECS] [--trace FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asched-serve: {e}");
            return ExitCode::from(2);
        }
    };

    let rec: Arc<dyn Recorder + Send + Sync> = match &args.trace {
        None => Arc::new(NullRecorder),
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Arc::new(JsonlRecorder::new(BufWriter::new(f))),
            Err(e) => {
                eprintln!("asched-serve: cannot open {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let handle = match Server::start(args.cfg, Arc::clone(&rec)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("asched-serve: bind failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!("listening on {}", handle.addr());

    // Two drain triggers: stdin EOF (portable SIGTERM stand-in) or the
    // --run-for timer. Either way shutdown() waits for in-flight work.
    let waiter = std::thread::spawn({
        let run_for = args.run_for;
        move || {
            match run_for {
                Some(d) => std::thread::sleep(d),
                None => {
                    // Block until stdin closes.
                    let mut sink = [0u8; 256];
                    let mut stdin = std::io::stdin();
                    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                }
            }
        }
    });
    let _ = waiter.join();

    eprintln!("draining");
    let metrics = handle.metrics();
    handle.shutdown();
    let _ = rec.flush();
    eprintln!("{}", metrics.to_json());
    ExitCode::SUCCESS
}
