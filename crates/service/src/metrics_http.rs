//! A minimal HTTP exposition surface for the metrics registry.
//!
//! Prometheus scrapes `GET /metrics` over plain HTTP, so the service
//! needs *some* HTTP endpoint — but this workspace vendors no
//! dependencies, and a scrape endpoint needs almost none of HTTP. This
//! module hand-rolls the sliver that matters over `std::net`: parse the
//! request line of an HTTP/1.1 `GET`, ignore headers, answer with
//! `Connection: close`. Two routes:
//!
//! - `GET /metrics` — Prometheus text exposition format 0.0.4
//!   (`text/plain; version=0.0.4`), suitable for a scrape target.
//! - `GET /metrics.json` — the same snapshot as pretty-printed JSON
//!   (schema `ceal-metrics/v1`), for humans with `curl` and for the CI
//!   consistency check.
//!
//! Anything else is a `404`; non-GET methods get `405`. Each request is
//! served from a fresh merged snapshot of every shard registry, so a
//! scrape never blocks the request hot path (registration mutexes are
//! cold; recorded values are relaxed atomic loads).
//!
//! The server is thread-per-connection like [`crate::frontend`], with
//! the same stop protocol (flag + self-connect poke). Scrape traffic is
//! one request per connection, so there is no keep-alive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::Service;

/// Longest request head (request line + headers) we bother reading.
const MAX_HEAD: u64 = 8 * 1024;

/// A running metrics HTTP server.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

/// Sends the whole response (status line, headers, body) with one
/// `write_all`, for the same reason the line frontend sends one write
/// per reply (see [`crate::frontend`]).
fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

fn serve_conn(service: Service, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream).take(MAX_HEAD);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() || request_line.is_empty() {
        return;
    }
    // Drain the headers so well-behaved clients are not cut off
    // mid-send when we close; errors here are harmless.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            write_response(
                &mut writer,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
            return;
        }
    };
    if method != "GET" {
        write_response(
            &mut writer,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
        return;
    }
    // Strip any query string: scrapers commonly append one.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = service.metrics_snapshot().to_prometheus();
            write_response(
                &mut writer,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/metrics.json" => {
            let body = service.metrics_snapshot().to_json(false);
            write_response(&mut writer, "200 OK", "application/json", &body);
        }
        _ => {
            write_response(
                &mut writer,
                "404 Not Found",
                "text/plain",
                "routes: /metrics, /metrics.json\n",
            );
        }
    }
}

impl MetricsServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving scrapes
    /// against `service`'s merged shard registries.
    pub fn spawn(service: Service, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("ceal-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let svc = service.clone();
                    let _ = std::thread::Builder::new()
                        .name("ceal-metrics-conn".into())
                        .spawn(move || serve_conn(svc, stream));
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting scrapes and joins the acceptor thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.acceptor.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceConfig};
    use crate::wire::Request;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrape_routes_and_content_types() {
        let _cpu = crate::cpu_lock();
        let svc = Service::start(ServiceConfig {
            shards: 2,
            ..Default::default()
        });
        assert!(svc
            .call(crate::wire::parse_request("open m1 sum 16 3").unwrap())
            .is_ok());
        assert!(svc.call(Request::Ping).is_ok());
        let server = MetricsServer::spawn(svc.clone(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let text = http_get(addr, "/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("text/plain; version=0.0.4"), "{text}");
        assert!(
            text.contains("# TYPE ceal_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains(r#"ceal_requests_total{shard="0",kind="ping"} 1"#),
            "{text}"
        );

        let json = http_get(addr, "/metrics.json");
        assert!(json.contains("application/json"), "{json}");
        assert!(json.contains("\"schema\": \"ceal-metrics/v1\""), "{json}");

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");

        server.stop();
        svc.shutdown();
    }
}
