//! Driving `flux-serve` over loopback: one document through one client
//! connection, checked against its references.

use std::net::SocketAddr;
use std::time::Instant;

use flux_serve::{Client, Outcome, Server, ServerConfig, ServerHandle};

use crate::inputs::{open_of, Expect, Open, ServeMix, SERVE_DOCS};
use crate::spans::Spans;

/// Shards the serve-small server runs.
pub const SHARDS: usize = 2;

/// Spawn a server for `mix` on an ephemeral loopback port; `metrics`
/// wires a registry through it (traced runs only).
pub fn spawn(
    mix: &ServeMix,
    metrics: Option<flux::MetricsRegistry>,
) -> Result<ServerHandle, String> {
    let cfg = ServerConfig { shards: SHARDS, metrics, ..ServerConfig::default() };
    Server::spawn("127.0.0.1:0", mix.registry.clone(), cfg)
        .map_err(|e| format!("server spawn: {e}"))
}

/// Connect a client to `addr`.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// The document the `j`-th request of client `c` sends; clients start at
/// different points of the mix.
pub fn doc_of(c: usize, j: usize) -> usize {
    (c * SERVE_DOCS / 2 + j) % SERVE_DOCS
}

fn check(out: &Outcome, expect: &Expect) -> Result<(), String> {
    if let Some((code, msg)) = &out.error {
        return Err(format!("server error {code:?}: {msg}"));
    }
    if out.aborted || out.done.is_none() {
        return Err("run ended without DONE".to_string());
    }
    expect.check(&out.output)
}

/// Send the `j`-th request of client `c` and wait for its last DONE; the
/// seconds from the first OPEN write to the last DONE frame. The outputs
/// are then checked. The sending and the waiting are recorded as
/// `serve.send` and `serve.wait` spans under a `serve.doc` span.
pub fn request(
    client: &mut Client,
    mix: &ServeMix,
    c: usize,
    j: usize,
    spans: &mut Spans,
) -> Result<f64, String> {
    let doc = &mix.docs[doc_of(c, j)];
    let open = open_of(j);
    let op = j as u64;
    let io = |e: std::io::Error| format!("wire: {e}");
    let t = Instant::now();
    let outs = spans.span("serve.doc", op, |s| {
        s.span("serve.send", op, |_| {
            match open {
                Open::Single(k) => client.open(mix.ids[k]).map_err(io)?,
                Open::All => client.open_many(&mix.ids).map_err(io)?,
            }
            for chunk in doc.bytes.chunks(crate::inputs::CHUNK) {
                client.chunk(chunk).map_err(io)?;
            }
            client.finish().map_err(io)
        })?;
        s.span("serve.wait", op, |_| match open {
            Open::Single(_) => client.collect().map(|o| vec![o]).map_err(io),
            Open::All => client.collect_shared(mix.ids.len()).map_err(io),
        })
    })?;
    let secs = t.elapsed().as_secs_f64();
    match open {
        Open::Single(k) => check(&outs[0], &doc.expect[k])?,
        Open::All => {
            for (out, expect) in outs.iter().zip(&doc.expect) {
                check(out, expect)?;
            }
        }
    }
    Ok(secs)
}
