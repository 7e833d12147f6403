//! `server_stream`: the HTTP service over the same runner, driven by one
//! client, one request at a time.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use datasynth::core::{CsvSink, TableFormat, TableSink};
use datasynth::server::{Server, ServerConfig, ServerHandle};
use datasynth::telemetry::fnv1a_64;
use datasynth::telemetry::json::Json;

use super::generate::Prepared;
use super::kernels::{self, InMemory};
use super::{fresh_dir, Checks, Ctx, Rep, Result, Samples, Workload, MB, STREAM_DSL};
use crate::trace::Tracer;

const WORKERS: usize = 2;
const GEN_THREADS: usize = 2;
const SHARDS: u64 = 4;
const TABLE: &str = "knows";

struct Response {
    status: u16,
    /// Body bytes received.
    bytes: u64,
    /// Request sent to status line read.
    ttfb: Duration,
    wall: Duration,
}

/// A keep-alive HTTP/1.1 connection.
struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    scratch: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            addr,
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            scratch: vec![0; 1 << 16],
        })
    }

    fn take(&mut self, mut n: usize, keep: Option<&mut Vec<u8>>) -> Result<()> {
        match keep {
            Some(body) => {
                let at = body.len();
                body.resize(at + n, 0);
                self.reader.read_exact(&mut body[at..])?;
            }
            None => {
                while n > 0 {
                    let step = n.min(self.scratch.len());
                    self.reader.read_exact(&mut self.scratch[..step])?;
                    n -= step;
                }
            }
        }
        Ok(())
    }

    /// One request and its response; the body is appended to `keep`, or
    /// read and dropped when there is none.
    fn request(
        &mut self,
        method: &str,
        target: &str,
        payload: &str,
        mut keep: Option<&mut Vec<u8>>,
    ) -> Result<Response> {
        // One write per request: pieces would wait on each other's ACKs.
        let request = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{payload}",
            self.addr,
            payload.len()
        );
        let started = Instant::now();
        self.writer.write_all(request.as_bytes())?;

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let ttfb = started.elapsed();
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut chunked, mut length) = (false, 0usize);
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if header == "transfer-encoding: chunked" {
                chunked = true;
            } else if let Some(n) = header.strip_prefix("content-length:") {
                length = n.trim().parse()?;
            }
        }

        let mut bytes = 0u64;
        if chunked {
            loop {
                line.clear();
                self.reader.read_line(&mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| format!("bad chunk size {line:?}"))?;
                if size > 0 {
                    self.take(size, keep.as_deref_mut())?;
                    bytes += size as u64;
                }
                self.take(2, None)?;
                if size == 0 {
                    break;
                }
            }
        } else {
            self.take(length, keep)?;
            bytes = length as u64;
        }
        Ok(Response {
            status,
            bytes,
            ttfb,
            wall: started.elapsed(),
        })
    }
}

pub struct ServerStream {
    ctx: Ctx,
    server: ServerHandle,
    hash: String,
    register: Duration,
    cached_on_repeat: bool,
    /// The last repetition's full pull and its shard pulls concatenated.
    full: Vec<u8>,
    shards: Vec<u8>,
    full_pull: Duration,
}

impl ServerStream {
    /// Start the server and register the schema (parse, lint and plan on
    /// the server), then again to see the cache answer.
    pub fn setup(ctx: &Ctx) -> Result<Self> {
        let mut config = ServerConfig::new("127.0.0.1:0");
        config.workers = WORKERS;
        config.gen_threads = ctx.threads(GEN_THREADS);
        let server = Server::start(config)?;
        let mut client = Client::connect(server.addr())?;
        let mut body = Vec::new();
        let first = client.request("POST", "/graphs", STREAM_DSL, Some(&mut body))?;
        if first.status != 201 {
            let answer = String::from_utf8_lossy(&body);
            return Err(format!("register: status {} {answer}", first.status).into());
        }
        let hash = Json::parse(std::str::from_utf8(&body)?)?
            .key("hash")?
            .str_of("hash")?
            .to_owned();
        body.clear();
        let second = client.request("POST", "/graphs", STREAM_DSL, Some(&mut body))?;
        let cached = Json::parse(std::str::from_utf8(&body)?)?
            .get("cached")
            .and_then(Json::as_bool);
        Ok(ServerStream {
            ctx: ctx.clone(),
            server,
            hash,
            register: first.wall,
            cached_on_repeat: second.status == 200 && cached == Some(true),
            full: Vec::new(),
            shards: Vec::new(),
            full_pull: Duration::ZERO,
        })
    }

    fn table_target(&self, shard: Option<u64>) -> String {
        let shard = shard
            .map(|i| format!("&shard={i}/{SHARDS}"))
            .unwrap_or_default();
        format!(
            "/graphs/{}/tables/{TABLE}.csv?seed={}{shard}",
            self.hash, self.ctx.seed
        )
    }
}

fn pull(
    tracer: &mut Tracer,
    client: &mut Client,
    name: &str,
    target: &str,
    keep: Option<&mut Vec<u8>>,
    checks: &mut Checks,
) -> Result<Response> {
    let timer = tracer.enter(name, "server");
    let response = client.request("GET", target, "", keep)?;
    tracer.exit_counted(timer, 0, response.bytes);
    checks.check(response.status == 200, || {
        format!("GET {target}: status {}", response.status)
    });
    Ok(response)
}

impl Workload for ServerStream {
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        let mut rep = Rep::default();
        // The two body buffers are reused, so that after the warm-up the
        // client allocates nothing that would show in `peak_rss_mb`.
        self.full.clear();
        self.shards.clear();
        let full_target = self.table_target(None);
        let shard_targets: Vec<String> = (0..SHARDS).map(|i| self.table_target(Some(i))).collect();
        let ops_target = format!("/graphs/{}/ops?seed={}", self.hash, self.ctx.seed);

        let root = tracer.enter("server_stream", "bench");
        let mut client = Client::connect(self.server.addr())?;
        let full = pull(
            tracer,
            &mut client,
            "GET knows.csv",
            &full_target,
            Some(&mut self.full),
            checks,
        )?;
        let mut shard_wall = Duration::ZERO;
        for (index, target) in shard_targets.iter().enumerate() {
            let name = format!("GET knows.csv shard {index}/{SHARDS}");
            let part = pull(
                tracer,
                &mut client,
                &name,
                target,
                Some(&mut self.shards),
                checks,
            )?;
            shard_wall += part.wall;
        }
        let ops = pull(tracer, &mut client, "GET ops", &ops_target, None, checks)?;
        let wall = tracer.exit(root);

        let out = &mut rep.metrics;
        let lines = self.full.iter().filter(|b| **b == b'\n').count();
        let full_s = full.wall.as_secs_f64();
        out.set("wall_s", wall.as_secs_f64());
        out.rate("rows_per_s", lines.saturating_sub(1) as f64, full_s);
        out.rate("mb_per_s", full.bytes as f64 / MB, full_s);
        out.set("shard_wall_s", shard_wall.as_secs_f64());
        out.set("server.shard_wall_ms", shard_wall.as_secs_f64() * 1e3);
        out.set("server.ttfb_ms", full.ttfb.as_secs_f64() * 1e3);
        out.rate("server.full_pull.mb_per_s", full.bytes as f64 / MB, full_s);
        out.rate(
            "server.shard_pull.mb_per_s",
            self.shards.len() as f64 / MB,
            shard_wall.as_secs_f64(),
        );
        out.rate(
            "server.ops_pull.mb_per_s",
            ops.bytes as f64 / MB,
            ops.wall.as_secs_f64(),
        );

        rep.hash = fnv1a_64(&self.full);
        self.full_pull = full.wall;
        Ok(rep)
    }

    /// The streamed table equals the file `CsvSink` writes in-process at one
    /// thread, and the shard pulls concatenate to the full pull.
    fn verify(&mut self, _hash: u64, checks: &mut Checks, _out: &mut Samples) -> Result<()> {
        checks.check(self.cached_on_repeat, || {
            "registering the same schema twice did not hit the cache".to_owned()
        });
        checks.check(self.shards == self.full, || {
            format!("the {SHARDS} shard pulls concatenated differ from the full pull")
        });
        let dir = self.ctx.dir.join("reference");
        fresh_dir(&dir)?;
        let prepared = Prepared::new(STREAM_DSL, self.ctx.seed, 1)?;
        prepared.session()?.run_into(&mut CsvSink::new(&dir))?;
        let file = std::fs::read(dir.join(format!("{TABLE}.csv")))?;
        checks.check(file == self.full, || {
            format!("streamed {TABLE}.csv differs from the CsvSink file")
        });
        Ok(())
    }

    fn kernels(&mut self, out: &mut Samples) -> Result<()> {
        let threads = self.ctx.threads(GEN_THREADS);
        let prepared = Prepared::new(STREAM_DSL, self.ctx.seed, threads)?;
        let mut sink = TableSink::new(TABLE, TableFormat::Csv, Vec::new());
        let started = Instant::now();
        prepared.session()?.run_into(&mut sink)?;
        out.rate(
            "server.overhead_ratio",
            self.full_pull.as_secs_f64(),
            started.elapsed().as_secs_f64(),
        );

        let mut client = Client::connect(self.server.addr())?;
        let mut metrics = Vec::new();
        client.request("GET", "/metrics", "", Some(&mut metrics))?;
        let hits = String::from_utf8_lossy(&metrics).lines().find_map(|l| {
            l.strip_prefix("datasynth_schema_cache_hits_total ")?
                .trim()
                .parse::<f64>()
                .ok()
        });
        out.set("server.cache_hits", hits.unwrap_or(0.0));

        let mut in_memory = InMemory::default();
        let (graph, _) = in_memory.get(&prepared, threads)?;
        kernels::structure_kernels(prepared.schema(), graph, self.ctx.seed, out)
    }

    fn setup_metrics(&self, out: &mut Samples) {
        out.set("server.register_ms", self.register.as_secs_f64() * 1e3);
    }
}
