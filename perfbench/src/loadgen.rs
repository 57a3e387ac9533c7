//! Load generator for the study server, built on
//! `mwc_server::client::request`. The open-loop phase sends request `i`
//! at `start + i / rate` whatever the server is doing, and charges each
//! request from that due time, so a stall is charged to every request it
//! delayed. The closed-loop phase keeps each connection busy back to
//! back, which measures capacity.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use mwc_server::client::{self, ClientError};

use crate::stats::{Outcome, Timing};

/// Per-request timeout covering connect, write and read.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// The kinds of request in the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /study` of a primed spec: a memory hit.
    Hit,
    /// `GET /study/<digest>` of a primed study.
    Get,
    /// `POST /study` of a primed seed with one new per-unit fault
    /// override.
    Edit,
}

/// One request to send.
#[derive(Debug, Clone)]
pub struct Request {
    /// Its kind in the mix.
    pub kind: Kind,
    /// HTTP method.
    pub method: &'static str,
    /// Request target.
    pub path: String,
    /// Request body.
    pub body: Vec<u8>,
    /// The digest the response must carry, when known before sending.
    pub expect: Option<u64>,
}

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in its phase's sequence.
    pub index: usize,
    /// Its kind in the mix.
    pub kind: Kind,
    /// Due, send and completion times.
    pub timing: Timing,
    /// How it ended (edits are checked against their reference later).
    pub outcome: Outcome,
    /// The digest the response carried, if any.
    pub digest: Option<u64>,
}

/// Send requests `0..count` at `rate` per second over `conns`
/// connections, each request due at `start + i / rate`.
pub fn open_loop(
    addr: &str,
    conns: usize,
    rate: f64,
    count: usize,
    make: &(dyn Fn(usize) -> Request + Sync),
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    drive(addr, conns, &|i| (i < count).then(|| due(i)), make)
}

/// Send requests `first_index..first_index + count` over `conns`
/// connections, each as soon as its connection is free; returns the
/// samples and the phase's wall time.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    count: usize,
    first_index: usize,
    make: &(dyn Fn(usize) -> Request + Sync),
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let mut samples = drive(addr, conns, &|i| (i < count).then(Instant::now), &|i| {
        make(first_index + i)
    });
    for s in &mut samples {
        s.index += first_index;
    }
    (samples, start.elapsed())
}

/// Run `conns` connection threads; each claims the next request index,
/// waits for its due time (`None` ends the phase), sends it and records
/// the result.
fn drive(
    addr: &str,
    conns: usize,
    due_of: &(dyn Fn(usize) -> Option<Instant> + Sync),
    make: &(dyn Fn(usize) -> Request + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(due) = due_of(i) else { break };
                    let req = make(i);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let result = client::request(
                        addr,
                        req.method,
                        &req.path,
                        &[],
                        &req.body,
                        REQUEST_TIMEOUT,
                    );
                    let done = Instant::now();
                    let (outcome, digest) = classify(&req, result);
                    mine.push(Sample {
                        index: i,
                        kind: req.kind,
                        timing: Timing { due, sent, done },
                        outcome,
                        digest,
                    });
                }
                samples
                    .lock()
                    .expect("sample list lock poisoned")
                    .extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample list lock poisoned");
    samples.sort_by_key(|s| s.index);
    samples
}

fn classify(
    req: &Request,
    result: Result<client::ClientResponse, ClientError>,
) -> (Outcome, Option<u64>) {
    let resp = match result {
        Ok(resp) => resp,
        Err(ClientError::Timeout) => return (Outcome::Timeout, None),
        Err(_) => return (Outcome::Error, None),
    };
    if !(200..300).contains(&resp.status) {
        return (Outcome::Status(resp.status), None);
    }
    let digest = body_digest(&resp.body_str());
    let outcome = match (digest, req.expect) {
        (None, _) => Outcome::Mismatch,
        (Some(got), Some(want)) if got != want => Outcome::Mismatch,
        _ => Outcome::Ok,
    };
    (outcome, digest)
}

/// The `"digest":"<16 hex>"` field of a study response body.
pub fn body_digest(body: &str) -> Option<u64> {
    let at = body.find("\"digest\":\"")? + "\"digest\":\"".len();
    u64::from_str_radix(body.get(at..at + 16)?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_read_from_the_study_body() {
        let body = r#"{"digest":"e58b2946ff34a629","units_requested":18}"#;
        assert_eq!(body_digest(body), Some(0xe58b_2946_ff34_a629));
        assert_eq!(body_digest(r#"{"error":"overload"}"#), None);
        assert_eq!(body_digest(r#"{"digest":"e58b"}"#), None);
    }
}
