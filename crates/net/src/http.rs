//! A tiny non-blocking multi-route observability HTTP listener.
//!
//! [`ObsServer`] generalizes the original `/metrics`-only listener into
//! the swarm-health observatory's front door, still deliberately
//! minimal and dependency-free in the style of the [`crate::runtime`]
//! poll loop: a non-blocking `TcpListener` plus an
//! [`ObsServer::poll`] pass the caller pumps from any thread. Routes:
//!
//! * `GET /metrics` — Prometheus text exposition of a
//!   [`bt_obs::Registry`] snapshot (unchanged from the old server);
//! * `GET /series` (optionally `?name=<prefix>`) — JSON export of an
//!   attached [`bt_obs::SeriesStore`];
//! * `GET /health` — the latest monitor verdicts, as JSON provided by
//!   an attached callback (normally
//!   `bt_analysis::live::HealthReport::to_json`);
//! * `GET /trace` — Chrome trace-event JSON of an attached causal
//!   [`bt_obs::Tracer`] (open in Perfetto / `chrome://tracing`);
//! * `GET /flightrec` — trigger an attached [`bt_obs::FlightRecorder`]
//!   dump and return the bundle JSON;
//! * `GET /profile` — JSON call-tree snapshot of an attached
//!   [`bt_obs::Profiler`] (the same document `--profile` writes);
//! * `GET /` — a self-contained HTML/JS dashboard that polls `/series`
//!   and `/health` and renders live sparklines.
//!
//! Snapshots are rendered lazily: a poll pass touches the registry only
//! when some connection has a complete request head to answer, so an
//! idle listener costs nothing per pass. One response per connection
//! (`Connection: close`); unparsable requests get a JSON 400, unknown
//! paths a JSON 404 listing the routes, and connections that dawdle
//! past the read deadline are dropped.

use bt_obs::{
    to_prometheus, DumpContext, FlightRecorder, Profiler, Registry, SeriesStore, Tracer,
    SPARKLINE_JS,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most bytes of request head we buffer before answering 400.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// One accepted connection working through request → response.
struct HttpConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    responding: bool,
    deadline: Instant,
}

type HealthJson = Arc<dyn Fn() -> String + Send + Sync>;

/// The observability listener; see the [module docs](self).
pub struct ObsServer {
    listener: TcpListener,
    registry: Registry,
    series: Option<SeriesStore>,
    health_json: Option<HealthJson>,
    tracer: Option<Tracer>,
    flight: Option<FlightRecorder>,
    profiler: Option<Profiler>,
    conns: Vec<HttpConn>,
    read_deadline: Duration,
    max_write_per_pass: usize,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9090"`, port 0 for ephemeral) and
    /// serve snapshots of `registry`.
    pub fn bind(addr: &str, registry: Registry) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ObsServer {
            listener,
            registry,
            series: None,
            health_json: None,
            tracer: None,
            flight: None,
            profiler: None,
            conns: Vec::new(),
            read_deadline: Duration::from_secs(10),
            max_write_per_pass: usize::MAX,
        })
    }

    /// Serve `store` on `GET /series` (and feed the dashboard).
    #[must_use]
    pub fn with_series(mut self, store: SeriesStore) -> ObsServer {
        self.series = Some(store);
        self
    }

    /// Serve `f()` on `GET /health`. The callback must return a
    /// complete JSON document (e.g. a `HealthReport::to_json`).
    #[must_use]
    pub fn with_health_json<F>(mut self, f: F) -> ObsServer
    where
        F: Fn() -> String + Send + Sync + 'static,
    {
        self.health_json = Some(Arc::new(f));
        self
    }

    /// Serve `tracer`'s flushed causal events on `GET /trace` as Chrome
    /// trace-event JSON. Events still sitting in other threads'
    /// unflushed arenas are not visible until their next batch flush.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> ObsServer {
        self.tracer = Some(tracer);
        self
    }

    /// Serve `recorder` on `GET /flightrec`: each request writes a
    /// `http`-reason bundle to the recorder's directory and returns the
    /// same bundle JSON as the response body.
    #[must_use]
    pub fn with_flight_recorder(mut self, recorder: FlightRecorder) -> ObsServer {
        self.flight = Some(recorder);
        self
    }

    /// Serve `profiler`'s aggregated call-tree snapshot on
    /// `GET /profile` (the same JSON document `--profile` writes).
    /// Spans still open on other threads appear once they close.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> ObsServer {
        self.profiler = Some(profiler);
        self
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Connections currently being served (mid-request or mid-response).
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// Drop connections that haven't been answered within `d` of being
    /// accepted (default 10 s) — the slow-loris guard.
    pub fn set_read_deadline(&mut self, d: Duration) {
        self.read_deadline = d;
    }

    /// Cap response bytes written per connection per [`poll`] pass
    /// (default unlimited). Mostly a test knob for exercising
    /// partially written responses.
    pub fn set_max_write_per_pass(&mut self, n: usize) {
        self.max_write_per_pass = n.max(1);
    }

    /// One non-blocking pass: accept waiting connections, read request
    /// heads, write pending responses. Returns `true` if any byte
    /// moved. Call this from a polling thread (a few ms apart is
    /// plenty for a scrape endpoint).
    ///
    /// [`poll`]: ObsServer::poll
    pub fn poll(&mut self) -> bool {
        let mut progressed = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(HttpConn {
                            stream,
                            inbuf: Vec::with_capacity(256),
                            outbuf: Vec::new(),
                            written: 0,
                            responding: false,
                            deadline: Instant::now() + self.read_deadline,
                        });
                        progressed = true;
                    }
                }
                Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let now = Instant::now();
        // Move the connection list out so routing can borrow `self`
        // (and render a registry snapshot only when a request is
        // actually ready — never once per idle pass).
        let mut conns = std::mem::take(&mut self.conns);
        let max_write = self.max_write_per_pass;
        conns.retain_mut(|c| {
            if now >= c.deadline {
                return false;
            }
            if !c.responding {
                match pump_request(c) {
                    Pump::Progress => progressed = true,
                    Pump::Idle => {}
                    Pump::Dead => return false,
                }
                if request_head_complete(&c.inbuf) {
                    c.outbuf = self.respond(&c.inbuf);
                    c.responding = true;
                }
            }
            if c.responding {
                let pass_limit = c.written.saturating_add(max_write).min(c.outbuf.len());
                loop {
                    if c.written == c.outbuf.len() {
                        // Response fully flushed; close (Connection: close).
                        return false;
                    }
                    if c.written >= pass_limit {
                        break;
                    }
                    match c.stream.write(&c.outbuf[c.written..pass_limit]) {
                        Ok(0) => return false,
                        Ok(n) => {
                            c.written += n;
                            progressed = true;
                        }
                        Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return false,
                    }
                }
            }
            true
        });
        self.conns = conns;
        progressed
    }

    /// Route a complete request head: see the [module docs](self) for
    /// the route table.
    fn respond(&self, inbuf: &[u8]) -> Vec<u8> {
        let head = String::from_utf8_lossy(inbuf);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        if method != "GET" {
            return http_response(
                "400 Bad Request",
                "application/json",
                b"{\"error\":\"bad request\"}\n",
            );
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        match path {
            "/metrics" => {
                let body = to_prometheus(&self.registry.snapshot());
                http_response(
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    body.as_bytes(),
                )
            }
            "/series" => {
                let prefix = query_param(query, "name");
                let body = match &self.series {
                    Some(store) => store.to_json(prefix.as_deref()),
                    None => "{\"series\":[]}".to_string(),
                };
                http_response("200 OK", "application/json", body.as_bytes())
            }
            "/health" => {
                let body = match &self.health_json {
                    Some(f) => f(),
                    None => "{\"healthy\":true,\"samples\":0,\"at_micros\":0,\"monitors\":[]}"
                        .to_string(),
                };
                http_response("200 OK", "application/json", body.as_bytes())
            }
            "/trace" => {
                let body = match &self.tracer {
                    Some(t) => t.to_chrome_json(),
                    None => "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".to_string(),
                };
                http_response("200 OK", "application/json", body.as_bytes())
            }
            "/flightrec" => match &self.flight {
                Some(fr) => {
                    let health_json = self.health_json.as_ref().map(|f| f());
                    let ctx = DumpContext {
                        registry: Some(&self.registry),
                        health_json: health_json.as_deref(),
                        explanation: None,
                        events_processed: 0,
                    };
                    let body = fr.bundle_json("http", &ctx);
                    let _ = fr.dump("http", &ctx);
                    http_response("200 OK", "application/json", body.as_bytes())
                }
                None => http_response(
                    "200 OK",
                    "application/json",
                    b"{\"error\":\"no flight recorder attached\"}\n",
                ),
            },
            "/profile" => {
                let body = match &self.profiler {
                    Some(p) => p.snapshot().to_json(),
                    None => "{\"spans\":[],\"flat\":[]}".to_string(),
                };
                http_response("200 OK", "application/json", body.as_bytes())
            }
            "/" => http_response(
                "200 OK",
                "text/html; charset=utf-8",
                [DASHBOARD_HEAD, SPARKLINE_JS, DASHBOARD_TAIL]
                    .concat()
                    .as_bytes(),
            ),
            _ => http_response(
                "404 Not Found",
                "application/json",
                b"{\"error\":\"not found\",\"routes\":[\"/\",\"/metrics\",\"/series\",\
                  \"/health\",\"/trace\",\"/flightrec\",\"/profile\"]}\n",
            ),
        }
    }
}

/// First value of `key` in an `a=b&c=d` query string (no percent
/// decoding: series names are plain `[a-z._{}]` and the dashboard never
/// encodes them).
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.to_string())
    })
}

enum Pump {
    Progress,
    Idle,
    Dead,
}

/// Read whatever request bytes are available; cap head size.
fn pump_request(c: &mut HttpConn) -> Pump {
    let mut buf = [0u8; 1024];
    let mut got = false;
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => return Pump::Dead,
            Ok(n) => {
                c.inbuf.extend_from_slice(&buf[..n]);
                got = true;
                if c.inbuf.len() > MAX_REQUEST_HEAD {
                    return Pump::Dead;
                }
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Pump::Dead,
        }
    }
    if got {
        Pump::Progress
    } else {
        Pump::Idle
    }
}

fn request_head_complete(inbuf: &[u8]) -> bool {
    inbuf.windows(4).any(|w| w == b"\r\n\r\n")
}

fn http_response(status: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// The head of the `GET /` dashboard: a single self-contained page (no external
/// assets, no frameworks) that polls `/series` + `/health` every two
/// seconds and draws one sparkline per series on `<canvas>`. Curated
/// prefixes (`live.`, `sim.`, `core.choke.`, `net.`) are shown first;
/// if none match, every series is shown, capped at 24 charts. Served
/// as this head, [`SPARKLINE_JS`] and [`DASHBOARD_TAIL`].
const DASHBOARD_HEAD: &str = r##"<!doctype html>
<html><head><meta charset="utf-8"><title>swarm observatory</title>
<style>
 body{font:13px/1.4 monospace;background:#10141a;color:#cdd6e0;margin:16px}
 h1{font-size:16px;margin:0 0 4px}
 #health{margin:6px 0 14px;padding:6px 10px;border-radius:4px;background:#1c2430}
 #health.bad{background:#3a1d1d}
 .mon{margin-right:14px}
 .ok{color:#7fd487}.warn{color:#ff8f8f;font-weight:bold}
 #charts{display:flex;flex-wrap:wrap;gap:12px}
 .chart{background:#161c26;border-radius:4px;padding:8px}
 .chart .name{color:#8fa3bd;margin-bottom:2px;max-width:220px;
              overflow:hidden;text-overflow:ellipsis;white-space:nowrap}
 .chart .val{color:#e8eef5}
 canvas{display:block;background:#10141a;border-radius:2px}
 #err{color:#ff8f8f}
 #links{margin:0 0 8px}
 #links a{color:#5da9e9;margin-right:10px;text-decoration:none}
</style></head><body>
<h1>swarm observatory</h1>
<div id="links"><a href="/metrics">metrics</a><a href="/series">series</a>
<a href="/health">health</a><a href="/trace">trace</a>
<a href="/flightrec">flightrec</a><a href="/profile">profile</a></div>
<div id="health">waiting for /health &hellip;</div>
<div id="err"></div>
<div id="charts"></div>
<script>
const PREFIXES=["live.","sim.","core.choke.","net."];
const MAX_CHARTS=24;
"##;

/// The dashboard after [`SPARKLINE_JS`]: the polling loop.
const DASHBOARD_TAIL: &str = r##"async function tick(){
  try{
    const hr=await fetch("/health"); const h=await hr.json();
    const hd=document.getElementById("health");
    if(h.monitors&&h.monitors.length){
      hd.className=h.healthy?"":"bad";
      hd.innerHTML=h.monitors.map(m=>
        `<span class="mon">${m.name} <span class="${m.healthy?"ok":"warn"}">`+
        `${fmt(m.value)} ${m.healthy?"ok":"WARN"}</span></span>`).join("")+
        `<span class="mon">(${h.samples} samples)</span>`;
    }else{hd.textContent="health: no monitors attached";}
    const sr=await fetch("/series"); const data=await sr.json();
    let series=data.series.filter(s=>PREFIXES.some(p=>s.name.startsWith(p)));
    if(!series.length)series=data.series;
    series=series.slice(0,MAX_CHARTS);
    const charts=document.getElementById("charts");
    for(const s of series){
      let el=document.getElementById("c_"+s.name);
      if(!el){
        el=document.createElement("div");el.className="chart";el.id="c_"+s.name;
        el.innerHTML=`<div class="name" title="${s.name}">${s.name}</div>`+
          `<canvas width="220" height="56"></canvas><div class="val"></div>`;
        charts.appendChild(el);
      }
      spark(el.querySelector("canvas"),s.points);
      const last=s.points[s.points.length-1];
      el.querySelector(".val").textContent=last?fmt(last[1]):"no data";
    }
    document.getElementById("err").textContent="";
  }catch(e){document.getElementById("err").textContent="poll failed: "+e;}
}
tick();setInterval(tick,2000);
</script></body></html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        read_response(stream)
    }

    fn read_response(stream: TcpStream) -> (String, String) {
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        // Skip headers, then read the body to EOF (Connection: close).
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        reader.read_to_string(&mut body).unwrap();
        (status.trim().to_string(), body)
    }

    fn serve_one(server: &mut ObsServer) {
        // Pump until the connection is fully answered and closed.
        for _ in 0..500 {
            server.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn serves_prometheus_exposition() {
        let registry = Registry::new_manual();
        registry.counter("net.bytes_in").add(42);
        registry
            .histogram("core.choke_round_us", bt_obs::buckets::LATENCY_US)
            .observe(7);
        let mut server = ObsServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || get(addr, "/metrics"));
        serve_one(&mut server);
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE net_bytes_in counter"));
        assert!(body.contains("net_bytes_in 42"));
        assert!(body.contains("core_choke_round_us_bucket{le=\"10\"} 1"));
        // Parseable: every non-comment line is `name{labels} value`.
        for line in body.lines().filter(|l| !l.starts_with('#')) {
            let mut it = line.rsplitn(2, ' ');
            let value = it.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable line: {line}");
        }
    }

    #[test]
    fn serves_series_health_and_dashboard() {
        let registry = Registry::new_manual();
        let store = SeriesStore::new(&registry);
        store.record_at("live.entropy", 5, 0.75);
        store.record_at("sim.live_peers", 5, 4.0);
        let mut server = ObsServer::bind("127.0.0.1:0", registry)
            .unwrap()
            .with_series(store)
            .with_health_json(|| "{\"healthy\":true,\"monitors\":[]}".to_string());
        let addr = server.local_addr().unwrap();

        let handle = std::thread::spawn(move || {
            (
                get(addr, "/series"),
                get(addr, "/series?name=live."),
                get(addr, "/health"),
                get(addr, "/"),
            )
        });
        serve_one(&mut server);
        let (all, filtered, health, dash) = handle.join().unwrap();
        assert_eq!(all.0, "HTTP/1.1 200 OK");
        assert!(all.1.contains("\"name\":\"live.entropy\""));
        assert!(all.1.contains("\"name\":\"sim.live_peers\""));
        assert_eq!(filtered.0, "HTTP/1.1 200 OK");
        assert!(filtered.1.contains("live.entropy"));
        assert!(!filtered.1.contains("sim.live_peers"));
        assert_eq!(health.0, "HTTP/1.1 200 OK");
        assert_eq!(health.1, "{\"healthy\":true,\"monitors\":[]}");
        assert_eq!(dash.0, "HTTP/1.1 200 OK");
        assert!(dash.1.contains("<!doctype html>"));
        assert!(dash.1.contains("fetch(\"/series\")"));
        assert!(dash.1.contains(&format!(
            "MAX_CHARTS=24;\n{SPARKLINE_JS}async function tick"
        )));
    }

    #[test]
    fn bare_server_serves_empty_series_and_vacuous_health() {
        let mut server = ObsServer::bind("127.0.0.1:0", Registry::new_manual()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || (get(addr, "/series"), get(addr, "/health")));
        serve_one(&mut server);
        let (series, health) = handle.join().unwrap();
        assert_eq!(series.1, "{\"series\":[]}");
        assert!(health.1.contains("\"healthy\":true"));
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_400() {
        let registry = Registry::new_manual();
        let mut server = ObsServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || get(addr, "/nope"));
        serve_one(&mut server);
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        // Machine-readable 404: JSON body listing the route table.
        assert!(body.starts_with("{\"error\":\"not found\""), "{body}");
        assert!(body.contains("\"/flightrec\""), "{body}");
        assert!(body.contains("\"/profile\""), "{body}");

        let handle = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "BREW /coffee HTTP/1.1\r\n\r\n").unwrap();
            let mut reader = BufReader::new(stream);
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            status.trim().to_string()
        });
        serve_one(&mut server);
        assert_eq!(handle.join().unwrap(), "HTTP/1.1 400 Bad Request");
    }

    #[test]
    fn serves_trace_and_flightrec() {
        let registry = Registry::new_manual();
        let tracer = Tracer::new(7, 1);
        let dir = std::env::temp_dir().join(format!("btflight-http-{}", std::process::id()));
        let recorder = FlightRecorder::new(&dir, 16, 7);
        let tracer = tracer.with_flight(recorder.clone());
        tracer.record(100, bt_obs::TraceCat::Piece, "injected", 3, &[("by", 0)]);
        tracer.flush_local();
        let mut server = ObsServer::bind("127.0.0.1:0", registry)
            .unwrap()
            .with_tracer(tracer)
            .with_flight_recorder(recorder);
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || (get(addr, "/trace"), get(addr, "/flightrec")));
        serve_one(&mut server);
        let (trace, flight) = handle.join().unwrap();
        assert_eq!(trace.0, "HTTP/1.1 200 OK");
        assert!(trace.1.contains("\"traceEvents\""), "{}", trace.1);
        assert!(trace.1.contains("injected"), "{}", trace.1);
        assert_eq!(flight.0, "HTTP/1.1 200 OK");
        assert!(flight.1.contains("\"reason\":\"http\""), "{}", flight.1);
        assert!(flight.1.contains("injected"), "{}", flight.1);
        // The request also persisted a bundle file.
        assert!(std::fs::read_dir(&dir).unwrap().count() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serves_profile_snapshot() {
        let profiler = Profiler::new(bt_obs::TimeSource::manual());
        let time = profiler.time().unwrap().clone();
        {
            let _g = profiler.span("tick");
            time.advance_to(250);
        }
        let mut server = ObsServer::bind("127.0.0.1:0", Registry::new_manual())
            .unwrap()
            .with_profiler(profiler);
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || get(addr, "/profile"));
        serve_one(&mut server);
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"path\":\"tick\""), "{body}");
        assert!(body.contains("\"total_us\":250"), "{body}");

        // Without a profiler the route answers the empty document.
        let mut bare = ObsServer::bind("127.0.0.1:0", Registry::new_manual()).unwrap();
        let addr = bare.local_addr().unwrap();
        let handle = std::thread::spawn(move || get(addr, "/profile"));
        serve_one(&mut bare);
        assert_eq!(handle.join().unwrap().1, "{\"spans\":[],\"flat\":[]}");
    }

    #[test]
    fn slow_loris_partial_head_is_dropped_at_the_deadline() {
        let mut server = ObsServer::bind("127.0.0.1:0", Registry::new_manual()).unwrap();
        server.set_read_deadline(Duration::from_millis(100));
        let addr = server.local_addr().unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        // A head that never finishes: no terminating \r\n\r\n.
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x").unwrap();
        // Let the server accept and read the partial head.
        for _ in 0..20 {
            server.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.active_connections(), 1);
        // Past the deadline the connection is dropped without an answer.
        std::thread::sleep(Duration::from_millis(120));
        server.poll();
        assert_eq!(server.active_connections(), 0);
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(stream.read(&mut buf).unwrap(), 0, "expected EOF, no bytes");
    }

    #[test]
    fn pipelined_garbage_after_the_head_is_ignored() {
        let registry = Registry::new_manual();
        registry.counter("net.ok").add(1);
        let mut server = ObsServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n\x00\xffGARBAGE not http")
                .unwrap();
            read_response(stream)
        });
        serve_one(&mut server);
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("net_ok 1"));
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn responses_survive_tiny_write_chunks_across_many_polls() {
        let registry = Registry::new_manual();
        // A body comfortably larger than the 7-byte write chunks.
        for i in 0..64 {
            registry
                .counter_with("net.bytes_in", &format!("peer{i:02}"))
                .add(i);
        }
        let mut server = ObsServer::bind("127.0.0.1:0", registry.clone()).unwrap();
        server.set_max_write_per_pass(7);
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || get(addr, "/metrics"));
        // Pump until the response is fully flushed, counting the passes
        // it took: a chunked response must span many of them.
        let mut passes = 0u32;
        for _ in 0..10_000 {
            server.poll();
            passes += 1;
            if passes > 5 && server.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let (status, body) = handle.join().unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, to_prometheus(&registry.snapshot()));
        let min_passes = (body.len() / 7) as u32;
        assert!(passes >= min_passes, "{passes} < {min_passes}");
    }
}
