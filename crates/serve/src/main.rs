//! The `llp_serve` binary: bind a TCP address and serve solve requests
//! until killed.
//!
//! ```text
//! llp_serve [--host 127.0.0.1] [--port 7171] [--shards N]
//!           [--workers N] [--queue N] [--cache N]
//! ```
//!
//! The shard count is `--shards`, or max(2, cores) without it (see
//! README "Network serving"). Every shard gets an identical
//! worker/queue/cache configuration, and every worker solves on one
//! scan thread. The server binds exactly the address given — the
//! default is loopback-only and the binary never dials out, so it is
//! safe to run in the offline CI container.

#![forbid(unsafe_code)]

use std::time::Duration;

use llp_serve::{default_shards, NetServer, ServeConfig};
use llp_service::ServiceConfig;

fn main() {
    let mut host = "127.0.0.1".to_string();
    let mut port: u16 = 7171;
    let mut shards_flag: Option<usize> = None;
    let mut service = ServiceConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--host" => host = expect_value(&mut args, "--host"),
            "--port" => port = expect_parse(&mut args, "--port"),
            "--shards" => shards_flag = Some(expect_parse(&mut args, "--shards")),
            "--workers" => service.workers = expect_parse(&mut args, "--workers"),
            "--queue" => service.queue_capacity = expect_parse(&mut args, "--queue"),
            "--cache" => service.cache_capacity = expect_parse(&mut args, "--cache"),
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                print_usage();
                std::process::exit(2);
            }
        }
    }

    let cfg = ServeConfig {
        shards: default_shards(shards_flag),
        service,
    };
    let addr = format!("{host}:{port}");
    let server = match NetServer::bind(&addr, cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("llp_serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "llp_serve listening on {} ({} shards x {} workers, queue {}, cache {})",
        server.local_addr(),
        cfg.shards,
        cfg.service.workers,
        cfg.service.queue_capacity,
        cfg.service.cache_capacity,
    );

    // Serve until the process is killed; the accept loop and handlers
    // run on their own threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn print_usage() {
    eprintln!(
        "usage: llp_serve [--host ADDR] [--port PORT] [--shards N] \
         [--workers N] [--queue N] [--cache N]"
    );
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn expect_parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = expect_value(args, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} value {v:?} is not valid");
        std::process::exit(2);
    })
}
