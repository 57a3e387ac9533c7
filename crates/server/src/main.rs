//! The `mwc-server` binary: boot from `MWC_SERVER_*`, print the bound
//! address, serve until SIGTERM/ctrl-c or `POST /admin/shutdown`, drain,
//! flush observability, exit 0.

use std::io::Write;
use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use mwc_server::config::ServerConfig;
use mwc_server::server::Server;
use mwc_server::signal;

fn main() -> ExitCode {
    // The server is an observability citizen by default: its counters and
    // request histograms are what /metrics serves.
    mwc_obs::set_enabled(true);
    signal::install();

    let config = ServerConfig::from_env();
    let drain_budget = config.drain;
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mwc-server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Scripts discover the OS-chosen port from this line; keep its shape.
    println!("mwc-server listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    while !server.shutdown_requested() && !signal::triggered() {
        thread::sleep(Duration::from_millis(20));
    }
    server.request_shutdown();
    eprintln!(
        "mwc-server: shutdown requested, draining (budget {} ms)",
        drain_budget.as_millis()
    );
    let stats = server.join();

    // Flush observability the same way `mwc` does: honor
    // MWC_TRACE if set, so a served session is inspectable post-mortem.
    if let Some(path) = mwc_obs::trace_path() {
        let data = mwc_obs::trace::drain();
        let metrics = mwc_obs::metrics::snapshot();
        let body = if mwc_obs::export::wants_jsonl(&path) {
            mwc_obs::export::jsonl(&data, &metrics)
        } else {
            mwc_obs::export::chrome_trace_json(&data)
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!(
                "mwc-server: writing trace to {} failed: {e}",
                path.display()
            );
        }
    }

    eprintln!(
        "mwc-server: drained clean — accepted={} requests={} 2xx={} 4xx={} 5xx={} shed={} panics={} deadline_expired={}",
        stats.accepted,
        stats.requests,
        stats.responses_2xx,
        stats.responses_4xx,
        stats.responses_5xx,
        stats.shed,
        stats.panics,
        stats.deadline_expired,
    );
    ExitCode::SUCCESS
}
