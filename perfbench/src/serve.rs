//! `serve-vga`: an open loop against a separate `rtped-serve` process.
//!
//! Sixteen tenants share one persistent connection per core: fourteen
//! software dashcams sending 640×480 `pixels` frames and two integrity
//! probes (`hw:` and `hw4:`) sending 96×160 `synthetic` frames. Requests
//! leave on a fixed schedule: a reference rate well below capacity, then
//! a rate that saturates the daemon. Latency runs from each request's
//! scheduled send time to its response. Every response is then compared
//! with an offline replica of the daemon's tenants fed the same
//! per-tenant order.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rtped_core::json::Json;
use rtped_core::rng::{Rng, SeedRng};
use rtped_core::{par, wire, FromJson, ToJson};
use rtped_detect::detector::{DetectorBuilder, FeaturePyramidDetector};
use rtped_detect::DetectorConfig;
use rtped_runtime::{FaultPlan, RuntimeConfig};
use rtped_serve::{
    FrameSpec, Journal, JournalEntry, JournaledJob, Request, Response, Tenant, TenantMap, Verdict,
};
use rtped_svm::LinearSvm;

use crate::stats::{cpu_seconds, host_ticks, median, peak_rss_mb, percentile};
use crate::trace::Trace;
use crate::{scenes, Args, Report};

const SOFTWARE_TENANTS: usize = 14;
const VGA_FRAMES: usize = 16;
const PROBE_W: u32 = 96;
const PROBE_H: u32 = 160;
/// Daemon start-ups per run, and how many of the least-stolen ones
/// `setup_s` takes the median of.
const SETUP_REPS: usize = 7;
const SETUP_KEPT: usize = 5;
/// The reference rung's rate (req/s) and its share of the run: well
/// below capacity, so a slower host lengthens service times without
/// tipping the rung into a growing queue, and long enough that a 25 s run
/// keeps ≥ 180 requests. The rest of the run saturates the daemon, long
/// enough that its completion rate averages over several seconds.
const REFERENCE_RPS: f64 = 12.0;
const REFERENCE_SHARE: f64 = 0.75;
/// Share of the reference rung that the latency metrics keep: the
/// windows with the most hypervisor steal are dropped until just this
/// much remains.
const REFERENCE_KEEP: f64 = 0.8;
/// Length of the windows the host's steal is sampled over.
const STEAL_WINDOW: Duration = Duration::from_secs(1);
/// The rung after the reference: its rate (req/s) saturates the daemon,
/// and its completion rate is `sustained_rps`.
const SATURATION_RPS: f64 = 64.0;
const SATURATION_SHARE: f64 = 1.0 - REFERENCE_SHARE;
/// Share of the saturating rung that runs before its completion rate
/// counts (the backlog builds up meanwhile).
const SATURATION_SETTLE: f64 = 0.3;
/// Software requests of the reference rung that the traced run also
/// pushes through the decomposed hog/detect calls.
const TRACED_DETECT_FRAMES: usize = 48;

fn tenant_names() -> Vec<String> {
    let mut names: Vec<String> = (0..SOFTWARE_TENANTS)
        .map(|i| format!("cam-{i:02}"))
        .collect();
    names.push(String::from("hw:probe-a"));
    names.push(String::from("hw4:probe-b"));
    names
}

/// One request of the run: which tenant, its job id, and its frame.
#[derive(Debug, Clone)]
struct Job {
    tenant: usize,
    job: String,
    frame: FrameRef,
}

#[derive(Debug, Clone, Copy)]
enum FrameRef {
    Vga(usize),
    Probe(u64),
}

/// Inputs shared by every request: the rendered VGA frames and their
/// pre-encoded `frame` JSON.
struct Inputs {
    names: Vec<String>,
    frames: Vec<rtped_image::GrayImage>,
    frame_json: Vec<Vec<u8>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let frames = scenes::vga(seed, VGA_FRAMES);
        let frame_json = frames
            .iter()
            .map(|f| pixels_spec(f).to_json().to_string().into_bytes())
            .collect();
        Inputs {
            names: tenant_names(),
            frames,
            frame_json,
        }
    }

    fn spec(&self, frame: FrameRef) -> FrameSpec {
        match frame {
            FrameRef::Vga(k) => pixels_spec(&self.frames[k]),
            FrameRef::Probe(seed) => FrameSpec::Synthetic {
                width: PROBE_W,
                height: PROBE_H,
                seed,
            },
        }
    }

    fn journaled(&self, job: &Job) -> JournaledJob {
        JournaledJob {
            tenant: self.names[job.tenant].clone(),
            job: job.job.clone(),
            fault_seed: None,
            frame: self.spec(job.frame),
        }
    }

    /// The length prefix and the request up to its `frame` value (the
    /// whole frame, for a probe).
    fn head(&self, job: &Job) -> Vec<u8> {
        let frame_inline = match job.frame {
            FrameRef::Probe(_) => self.spec(job.frame).to_json().to_string(),
            FrameRef::Vga(_) => String::new(),
        };
        let head = format!(
            "{{\"format\":1,\"kind\":\"detect\",\"tenant\":\"{}\",\"job\":\"{}\",\"fault_seed\":null,\"frame\":{frame_inline}",
            self.names[job.tenant], job.job
        );
        let len = (head.len() + self.body(job).len() + TAIL.len()) as u32;
        let mut prefixed = len.to_be_bytes().to_vec();
        prefixed.extend_from_slice(head.as_bytes());
        prefixed
    }

    /// The shared pre-encoded frame JSON of a software request, so no
    /// request is ever copied whole.
    fn body(&self, job: &Job) -> &[u8] {
        match job.frame {
            FrameRef::Vga(k) => &self.frame_json[k],
            FrameRef::Probe(_) => &[],
        }
    }

    /// The request payload (without the length prefix).
    fn request_bytes(&self, job: &Job) -> Vec<u8> {
        [&self.head(job)[4..], self.body(job), TAIL].concat()
    }

    /// The payload's length in bytes.
    fn request_len(&self, job: &Job) -> usize {
        self.head(job).len() - 4 + self.body(job).len() + TAIL.len()
    }
}

/// Closes the request object after the frame.
const TAIL: &[u8] = b"}";

fn pixels_spec(frame: &rtped_image::GrayImage) -> FrameSpec {
    FrameSpec::Pixels {
        width: frame.width() as u32,
        height: frame.height() as u32,
        pixels: frame.as_raw().to_vec(),
    }
}

/// The arrival schedule: send offsets (s), and whether each request
/// belongs to the reference rung (else to the saturating one).
struct Schedule {
    offsets: Vec<f64>,
    reference: Vec<bool>,
    /// Where the saturating rung starts and ends (s).
    saturation: (f64, f64),
}

fn schedule(seconds: f64) -> Schedule {
    let mut out = Schedule {
        offsets: Vec::new(),
        reference: Vec::new(),
        saturation: (seconds * REFERENCE_SHARE, seconds),
    };
    let rungs = [
        (REFERENCE_RPS, 0.0, seconds * REFERENCE_SHARE, true),
        (
            SATURATION_RPS,
            out.saturation.0,
            seconds * SATURATION_SHARE,
            false,
        ),
    ];
    for (rate, start, len, reference) in rungs {
        let count = (rate * len).round() as usize;
        for k in 0..count {
            out.offsets.push(start + k as f64 / rate);
            out.reference.push(reference);
        }
    }
    out
}

/// The request sequence. Request `k` goes out on connection
/// `k % conns`, so each connection sees a strictly periodic arrival
/// stream; its tenants (`t % conns == c`) take turns in rounds shuffled
/// by the seed. Software frames cycle through the VGA ring per tenant.
fn jobs(seed: u64, count: usize, label: &str, counters: &mut [u64], conns: usize) -> Vec<Job> {
    let mut rng = SeedRng::seed_from_u64(seed ^ 0x5E4F_E000);
    let mut rounds: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns];
    (0..count)
        .map(|k| {
            let c = k % conns;
            if rounds[c].is_empty() {
                let mut order: Vec<usize> = (c..counters.len()).step_by(conns).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                rounds[c].extend(order);
            }
            let t = rounds[c].pop_front().expect("refilled above");
            let n = counters[t];
            counters[t] += 1;
            let frame = if t < SOFTWARE_TENANTS {
                FrameRef::Vga((t * 5 + n as usize) % VGA_FRAMES)
            } else {
                FrameRef::Probe(
                    seed.wrapping_mul(7919)
                        .wrapping_add(t as u64 * 1_000_003 + n),
                )
            };
            Job {
                tenant: t,
                job: format!("{label}-{t:02}-{n:05}"),
                frame,
            }
        })
        .collect()
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    /// Held open until the daemon has exited, so its farewell line never
    /// meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    journal: PathBuf,
}

impl Daemon {
    fn spawn(bin: &str, workers: usize, journal: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&journal);
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--journal",
            ])
            .arg(&journal)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {bin}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("rtped-serve: listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
                journal,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not start (said {line:?})"))
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to shut down and waits for it to exit (killing it
    /// after 20 s).
    fn shutdown(mut self) -> Result<(), String> {
        let mut stream = self.connect()?;
        let payload = Request::Shutdown.to_json().to_string().into_bytes();
        wire::write_frame(&mut stream, &payload).map_err(|e| e.to_string())?;
        let _ = wire::read_frame(&mut stream, wire::MAX_FRAME_BYTES);
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        let _ = std::fs::remove_file(&self.journal);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// One request's fate on the wire.
#[derive(Debug, Clone, Default)]
struct Outcome {
    enqueued: Option<Instant>,
    done: Option<Instant>,
    response: Vec<u8>,
}

/// The host's cumulative (steal, total) ticks at an instant.
type StealMark = (Instant, u64, u64);

/// Sends `jobs` over `conns` (tenant `t` on connection `t % conns`), each
/// request no earlier than `start + offsets[i]`. One thread per
/// connection; responses come back in request order per connection. The
/// first connection's thread also samples the host's steal every
/// `STEAL_WINDOW`.
fn drive(
    inputs: &Inputs,
    conns: &[TcpStream],
    jobs: &[Job],
    offsets: &[f64],
    start: Instant,
    give_up: Instant,
) -> (Vec<Outcome>, Vec<StealMark>) {
    let mut marks = Vec::new();
    let per_conn: Vec<Vec<usize>> = (0..conns.len())
        .map(|c| {
            (0..jobs.len())
                .filter(|&i| jobs[i].tenant % conns.len() == c)
                .collect()
        })
        .collect();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .zip(&per_conn)
            .skip(1)
            .map(|(stream, mine)| {
                scope.spawn(move || {
                    connection_loop(inputs, stream, jobs, mine, offsets, start, give_up, None)
                })
            })
            .collect();
        let mut all = vec![connection_loop(
            inputs,
            &conns[0],
            jobs,
            &per_conn[0],
            offsets,
            start,
            give_up,
            Some(&mut marks),
        )];
        for handle in handles {
            all.push(handle.join().expect("connection thread"));
        }
        all
    });
    let mut out = vec![Outcome::default(); jobs.len()];
    for (mine, outcomes) in per_conn.iter().zip(results) {
        for (&i, outcome) in mine.iter().zip(outcomes) {
            out[i] = outcome;
        }
    }
    (out, marks)
}

#[allow(clippy::too_many_arguments)] // one connection's whole schedule
fn connection_loop(
    inputs: &Inputs,
    stream: &TcpStream,
    jobs: &[Job],
    mine: &[usize],
    offsets: &[f64],
    start: Instant,
    give_up: Instant,
    mut steal: Option<&mut Vec<StealMark>>,
) -> Vec<Outcome> {
    let mut out = vec![Outcome::default(); mine.len()];
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_micros(500)));
    let mut next = 0usize; // next of `mine` to enqueue
    let mut writing: Option<(usize, Vec<u8>, usize)> = None; // (local idx, head, pos)
    let mut queued: VecDeque<usize> = VecDeque::new();
    let mut awaiting: VecDeque<usize> = VecDeque::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    let mut answered = 0usize;
    while answered < mine.len() {
        let now = Instant::now();
        if now > give_up {
            break;
        }
        if let Some(marks) = steal.as_deref_mut() {
            if marks.last().is_none_or(|m| now - m.0 >= STEAL_WINDOW) {
                let (stolen, total) = host_ticks();
                marks.push((now, stolen, total));
            }
        }
        while next < mine.len() && start + Duration::from_secs_f64(offsets[mine[next]]) <= now {
            out[next].enqueued = Some(now);
            queued.push_back(next);
            awaiting.push_back(next);
            next += 1;
        }
        if writing.is_none() {
            if let Some(local) = queued.pop_front() {
                writing = Some((local, inputs.head(&jobs[mine[local]]), 0));
            }
        }
        if let Some((local, head, pos)) = writing.as_mut() {
            let body = inputs.body(&jobs[mine[*local]]);
            let total = head.len() + body.len() + TAIL.len();
            let slice: &[u8] = if *pos < head.len() {
                &head[*pos..]
            } else if *pos < head.len() + body.len() {
                &body[*pos - head.len()..]
            } else {
                &TAIL[*pos - head.len() - body.len()..]
            };
            match stream.write(slice) {
                Ok(n) => *pos += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
            if *pos == total {
                writing = None;
            }
        }
        let wait = if writing.is_some() || !queued.is_empty() {
            Duration::from_micros(200)
        } else if next < mine.len() {
            let due = start + Duration::from_secs_f64(offsets[mine[next]]);
            due.saturating_duration_since(Instant::now())
                .clamp(Duration::from_micros(50), Duration::from_millis(20))
        } else {
            Duration::from_millis(20)
        };
        let _ = stream.set_read_timeout(Some(wait));
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => inbuf.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
        let mut at = 0usize;
        while inbuf.len() - at >= 4 {
            let len = u32::from_be_bytes(inbuf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if inbuf.len() - at - 4 < len {
                break;
            }
            let Some(local) = awaiting.pop_front() else {
                break;
            };
            out[local].done = Some(Instant::now());
            out[local].response = inbuf[at + 4..at + 4 + len].to_vec();
            answered += 1;
            at += 4 + len;
        }
        inbuf.drain(..at);
    }
    out
}

/// Sends one request and waits for its response (set-up warm-ups).
fn call(stream: &TcpStream, inputs: &Inputs, job: &Job) -> Result<Vec<u8>, String> {
    let mut stream = stream;
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_write_timeout(None);
    for part in [&inputs.head(job)[..], inputs.body(job), TAIL] {
        stream
            .write_all(part)
            .map_err(|e| format!("warm-up write: {e}"))?;
    }
    match wire::read_frame(stream, wire::MAX_FRAME_BYTES) {
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err("daemon closed the connection".into()),
        Err(e) => Err(format!("warm-up read: {e}")),
    }
}

fn kind_of(response: &[u8]) -> String {
    Json::parse_bytes(response)
        .ok()
        .and_then(|j| j.get("kind").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| String::from("unparsable"))
}

/// Marks the reference-rung requests the latency metrics keep: all but
/// those sent in the steal windows with the most hypervisor steal,
/// dropped noisiest first while at least `REFERENCE_KEEP` of the rung
/// remains. On a shared host, steal bursts and not the code drive most of
/// the run-to-run spread of a tail percentile.
fn quiet_reference(
    report: &mut Report,
    plan: &Schedule,
    due: &[Instant],
    marks: &[StealMark],
) -> Vec<bool> {
    let window_of = |t: Instant| marks.partition_point(|m| m.0 <= t).saturating_sub(1);
    let windows = marks.len().saturating_sub(1).max(1);
    let share = |w: usize| match (marks.get(w), marks.get(w + 1)) {
        (Some(a), Some(b)) => (b.1 - a.1) as f64 / (b.2 - a.2).max(1) as f64,
        _ => 0.0,
    };
    let mut count = vec![0usize; windows + 1];
    let reference: Vec<usize> = (0..due.len()).filter(|&i| plan.reference[i]).collect();
    for &i in &reference {
        count[window_of(due[i]).min(windows)] += 1;
    }
    let mut noisiest: Vec<usize> = (0..=windows).filter(|&w| count[w] > 0).collect();
    noisiest.sort_by(|&a, &b| share(b).total_cmp(&share(a)));
    let floor = (reference.len() as f64 * REFERENCE_KEEP).ceil() as usize;
    let mut remaining = reference.len();
    let mut dropped = vec![false; windows + 1];
    for w in noisiest {
        if remaining - count[w] < floor {
            break;
        }
        remaining -= count[w];
        dropped[w] = true;
    }
    let mut kept = vec![false; due.len()];
    let (mut all, mut quiet) = (Vec::new(), Vec::new());
    for &i in &reference {
        let w = window_of(due[i]).min(windows);
        kept[i] = !dropped[w];
        all.push(share(w));
        if kept[i] {
            quiet.push(share(w));
        }
    }
    report.input(
        "host steal, reference rung / kept (median)",
        format!("{:.3} / {:.3}", median(&all), median(&quiet)),
    );
    report.input(
        "reference requests timed / kept",
        format!("{} / {remaining}", reference.len()),
    );
    kept
}

/// A request the daemon answered: its job, the response bytes, and its
/// index in the timed schedule (`None` for a warm-up).
#[derive(Debug, Clone)]
struct Answered {
    job: Job,
    reply: Vec<u8>,
    timed: Option<usize>,
}

/// A warmed daemon with its connections and the warm-up answers.
struct Live {
    daemon: Daemon,
    conns: Vec<TcpStream>,
    warm: Vec<Answered>,
}

/// Starts the daemon and warms every tenant with one request on its
/// pinned connection. Returns it with the elapsed seconds.
fn start_daemon(
    bin: &str,
    workers: usize,
    journal: PathBuf,
    inputs: &Inputs,
    seed: u64,
) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, workers, journal)?;
    let conns: Vec<TcpStream> = (0..workers)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let mut counters = vec![0u64; inputs.names.len()];
    let mut warm = jobs(
        seed ^ 0xAAAA,
        inputs.names.len(),
        "warm",
        &mut counters,
        workers,
    );
    warm.sort_by_key(|j| j.tenant);
    let mut answered = Vec::new();
    for job in warm {
        let reply = call(&conns[job.tenant % conns.len()], inputs, &job)?;
        if kind_of(&reply) != "frame_result" {
            return Err(format!(
                "warm-up of {} answered {}",
                inputs.names[job.tenant],
                String::from_utf8_lossy(&reply)
            ));
        }
        answered.push(Answered {
            job,
            reply,
            timed: None,
        });
    }
    let live = Live {
        daemon,
        conns,
        warm: answered,
    };
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// The daemon's default configuration (what `rtped-serve` resolves with
/// no flags), which the replica must share.
fn daemon_config() -> Result<RuntimeConfig, String> {
    RuntimeConfig::builder()
        .env_overrides()
        .build()
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("serve-vga needs --serve-bin PATH to the rtped-serve daemon")?;
    let work = Path::new(&args.work_dir);
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let workers = par::threads().clamp(1, 16);
    let inputs = Inputs::new(args.seed);
    let mut report = Report::default();

    // Decode check of the hand-built wire bytes (one of each kind).
    let mut probe_counters = vec![0u64; inputs.names.len()];
    for job in jobs(
        args.seed,
        inputs.names.len(),
        "probe",
        &mut probe_counters,
        1,
    ) {
        let bytes = inputs.request_bytes(&job);
        let decoded = Json::parse_bytes(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|j| Request::from_json(&j).map_err(|e| e.to_string()))?;
        let expected = Request::Detect {
            tenant: inputs.names[job.tenant].clone(),
            job: job.job.clone(),
            fault_seed: None,
            frame: inputs.spec(job.frame),
        };
        if decoded != expected {
            return Err(format!("request bytes for {} do not decode", job.job));
        }
    }

    // Set-up, several times; the last daemon stays up for the run.
    // `setup_s` is the median of the start-ups during which the
    // hypervisor stole the least CPU time.
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let journal = work.join(format!("serve-{}-{rep}.journal", std::process::id()));
        let ticks0 = host_ticks();
        let (started, secs) = start_daemon(bin, workers, journal, &inputs, args.seed)?;
        let ticks1 = host_ticks();
        let steal = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;
        setups.push((steal, secs));
        if rep + 1 < SETUP_REPS {
            drop(started.conns);
            started.daemon.shutdown()?;
        } else {
            live = Some(started);
        }
    }
    let Live {
        daemon,
        conns,
        warm,
    } = live.expect("SETUP_REPS >= 1");

    let plan = schedule(args.seconds);
    let mut counters = vec![1u64; inputs.names.len()];
    let timed = jobs(args.seed, plan.offsets.len(), "job", &mut counters, workers);
    let start = Instant::now() + Duration::from_millis(20);
    let give_up = start + Duration::from_secs_f64(args.seconds + 60.0);
    let cpu0 = cpu_seconds(&daemon.pid());
    let (outcomes, steal_marks) = drive(&inputs, &conns, &timed, &plan.offsets, start, give_up);
    let cpu = cpu_seconds(&daemon.pid()) - cpu0;
    let rss = peak_rss_mb(&daemon.pid());
    drop(conns);
    daemon.shutdown()?;

    // Outcomes, latency from the scheduled send time; a failed request
    // counts as over every limit.
    let due: Vec<Instant> = plan
        .offsets
        .iter()
        .map(|&o| start + Duration::from_secs_f64(o))
        .collect();
    let mut latency = Vec::with_capacity(timed.len());
    let mut lag = Vec::with_capacity(timed.len());
    let mut failed = vec![false; timed.len()];
    let (mut shed, mut rejected) = (0usize, 0usize);
    for (i, o) in outcomes.iter().enumerate() {
        match o.enqueued {
            Some(e) if plan.reference[i] => {
                lag.push(e.saturating_duration_since(due[i]).as_secs_f64() * 1e3);
            }
            _ => {}
        }
        let kind = o.done.map(|_| kind_of(&o.response));
        match kind.as_deref() {
            Some("frame_result") => {
                let done = o.done.expect("answered");
                latency.push(done.saturating_duration_since(due[i]).as_secs_f64() * 1e3);
            }
            other => {
                shed += usize::from(other == Some("shed"));
                rejected += usize::from(other == Some("rejected"));
                failed[i] = true;
                latency.push(f64::INFINITY);
                report.mismatch(format!(
                    "{} {}: {}",
                    inputs.names[timed[i].tenant],
                    timed[i].job,
                    other.unwrap_or("no response")
                ));
            }
        }
    }
    report.attempted = timed.len() as u64;

    // Output check: an offline replica of every tenant, fed the same
    // per-tenant order (warm-up first), must answer byte-identically.
    // The traced run replays through the decomposed layer calls instead.
    let config = daemon_config()?;
    let mut per_tenant: Vec<Vec<Answered>> = vec![Vec::new(); inputs.names.len()];
    for answered in warm {
        per_tenant[answered.job.tenant].push(answered);
    }
    for (i, job) in timed.iter().enumerate() {
        if !failed[i] {
            per_tenant[job.tenant].push(Answered {
                job: job.clone(),
                reply: outcomes[i].response.clone(),
                timed: Some(i),
            });
        }
    }
    if args.trace {
        let journal = work.join(format!("replay-{}.journal", std::process::id()));
        let replay = replay_traced(
            &mut report,
            &inputs,
            &config,
            &per_tenant,
            &journal,
            &plan,
            &latency,
        );
        let _ = std::fs::remove_file(&journal);
        replay?;
    } else {
        par::map(&per_tenant, |list| {
            let mut bad = Vec::new();
            if let Some(first) = list.first() {
                let mut tenant = Tenant::new(&inputs.names[first.job.tenant], &config);
                for answered in list {
                    let expect = tenant
                        .serve_job(&inputs.journaled(&answered.job))
                        .to_json()
                        .to_string();
                    if expect.as_bytes() != answered.reply.as_slice() {
                        bad.push(format!("{}: daemon != replica", answered.job.job));
                    }
                }
            }
            bad
        })
        .into_iter()
        .flatten()
        .for_each(|m| report.mismatch(m));
    }

    // End-to-end metrics.
    let kept = quiet_reference(&mut report, &plan, &due, &steal_marks);
    let reference: Vec<f64> = (0..timed.len())
        .filter(|&i| kept[i] || (plan.reference[i] && failed[i]))
        .map(|i| latency[i])
        .collect();
    report.input(
        "daemon start-ups (s)",
        setups
            .iter()
            .map(|s| format!("{:.3}", s.1))
            .collect::<Vec<_>>()
            .join(" "),
    );
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let setup_times: Vec<f64> = setups[..SETUP_KEPT].iter().map(|s| s.1).collect();
    report.metric("setup_s", median(&setup_times), setup_times.len());
    report.input(
        "host steal, start-ups kept (max) / all (max)",
        format!(
            "{:.3} / {:.3}",
            setups[SETUP_KEPT - 1].0,
            setups[SETUP_REPS - 1].0
        ),
    );
    report.metric(
        "latency_ms.p50",
        percentile(&reference, 50.0),
        reference.len(),
    );
    report.metric(
        "latency_ms.p95",
        percentile(&reference, 95.0),
        reference.len(),
    );
    let (sustained, rungs) = sustained_rps(&plan, &outcomes, &latency, start);
    report.metric("throughput_per_s", sustained, timed.len());
    report.metric("peak_rss_mb", rss, 1);
    let answered = outcomes.iter().filter(|o| o.done.is_some()).count();
    report.metric(
        "cpu_ms_per_op",
        cpu * 1e3 / answered.max(1) as f64,
        answered,
    );
    report.metric("gen.lag_ms.p95", percentile(&lag, 95.0), lag.len());
    report.metric("serve.shed", shed as f64, timed.len());
    report.metric("serve.rejected", rejected as f64, timed.len());
    for line in rungs {
        report.input("rung", line);
    }

    // Input properties: request sizes and mix.
    let hw = timed
        .iter()
        .filter(|j| j.tenant >= SOFTWARE_TENANTS)
        .count();
    let sw_bytes: Vec<f64> = timed
        .iter()
        .filter(|j| j.tenant < SOFTWARE_TENANTS)
        .take(64)
        .map(|j| inputs.request_len(j) as f64)
        .collect();
    let hw_bytes: Vec<f64> = timed
        .iter()
        .filter(|j| j.tenant >= SOFTWARE_TENANTS)
        .take(16)
        .map(|j| inputs.request_len(j) as f64)
        .collect();
    let resp_bytes: Vec<f64> = outcomes.iter().map(|o| o.response.len() as f64).collect();
    report.input(
        "request mix software / hw: / hw4:",
        format!(
            "{} / {} / {}",
            timed.len() - hw,
            timed
                .iter()
                .filter(|j| j.tenant == SOFTWARE_TENANTS)
                .count(),
            timed
                .iter()
                .filter(|j| j.tenant == SOFTWARE_TENANTS + 1)
                .count()
        ),
    );
    report.input(
        "request bytes software / hw (median)",
        format!("{} / {}", median(&sw_bytes), median(&hw_bytes)),
    );
    report.input("connections = daemon workers", workers);
    report.metric(
        "serve.hw_request_frac",
        hw as f64 / timed.len() as f64,
        timed.len(),
    );
    let all_bytes: Vec<f64> = timed.iter().map(|j| inputs.request_len(j) as f64).collect();
    report.metric("serve.request_bytes", median(&all_bytes), all_bytes.len());
    report.metric(
        "serve.response_bytes",
        median(&resp_bytes),
        resp_bytes.len(),
    );
    report.metric(
        "runtime.degraded_frac",
        degraded_frac(&outcomes),
        outcomes.len(),
    );
    Ok(report)
}

/// Share of frame results whose controller state is not `healthy`.
fn degraded_frac(outcomes: &[Outcome]) -> f64 {
    let mut results = 0usize;
    let mut degraded = 0usize;
    for o in outcomes {
        let Ok(json) = Json::parse_bytes(&o.response) else {
            continue;
        };
        if json.get("kind").and_then(Json::as_str) != Some("frame_result") {
            continue;
        }
        results += 1;
        let state = json
            .get("record")
            .and_then(|r| r.get("state"))
            .and_then(Json::as_str);
        degraded += usize::from(state != Some("healthy"));
    }
    degraded as f64 / results.max(1) as f64
}

/// `sustained_rps`: the daemon's completion rate while the saturating
/// top rung keeps it backlogged, from `SATURATION_SETTLE` into that
/// rung until the backlog has drained. Also returns one summary line per
/// rung: its p50, p95 and backlog growth.
fn sustained_rps(
    plan: &Schedule,
    outcomes: &[Outcome],
    latency: &[f64],
    start: Instant,
) -> (f64, Vec<String>) {
    let at = |t: f64| start + Duration::from_secs_f64(t);
    let backlog_at = |t: f64| -> usize {
        let sent = plan.offsets.iter().filter(|&&o| o < t).count();
        let done = outcomes
            .iter()
            .filter(|o| o.done.is_some_and(|d| d <= at(t)))
            .count();
        sent.saturating_sub(done)
    };
    let (top, end) = plan.saturation;
    let mut lines = Vec::new();
    for (rate, reference, t0, t1) in [
        (REFERENCE_RPS, true, 0.0, top),
        (SATURATION_RPS, false, top, end),
    ] {
        let lat: Vec<f64> = (0..latency.len())
            .filter(|&i| plan.reference[i] == reference)
            .map(|i| latency[i])
            .collect();
        let growth = backlog_at(t1) as i64 - backlog_at(t0) as i64;
        lines.push(format!(
            "{rate:>5.1} req/s: n={} p50 {:.1} ms p95 {:.1} ms backlog growth {growth}",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 95.0),
        ));
    }
    let from = top + (end - top) * SATURATION_SETTLE;
    let mut done: Vec<Instant> = outcomes
        .iter()
        .filter_map(|o| o.done)
        .filter(|&d| d >= at(from))
        .collect();
    done.sort();
    let rate = match (done.first(), done.last()) {
        (Some(&first), Some(&last)) if last > first => {
            (done.len() - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    };
    lines.push(format!(
        "saturated: backlog {} at {from:.2} s, {rate:.2} req/s completed",
        backlog_at(from)
    ));
    (rate, lines)
}

/// The daemon's software model: the serving crate derives it privately
/// from a fixed seed, so the benchmark does the same to run the
/// decomposed detector. The traced run checks the copy against the
/// boxes the daemon publishes.
fn daemon_model(dim: usize) -> LinearSvm {
    let mut rng = SeedRng::seed_from_u64(0x000D_AC17);
    let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..=1.0)).collect();
    LinearSvm::new(weights, -0.5)
}

/// Replays every tenant's requests, in per-tenant order, through the
/// daemon's layer calls with a span around each: decode
/// (`Json::parse_bytes` + `Request::from_json`), admission
/// (`TenantMap::assess`), journal (`Journal::append`, job and done),
/// render (`FrameSpec::render`), the engine (`Engine::serve_frame`) and
/// encode (`Response::to_json` + `wire::encode_frame`). The encoded
/// response must equal the daemon's. Software frames of the reference
/// rung then also run through the decomposed hog/detect calls on the
/// daemon's f32 configuration, and their untraced detections must equal
/// the daemon's published boxes.
fn replay_traced(
    report: &mut Report,
    inputs: &Inputs,
    config: &RuntimeConfig,
    per_tenant: &[Vec<Answered>],
    journal_path: &Path,
    plan: &Schedule,
    latency: &[f64],
) -> Result<(), String> {
    let map = TenantMap::new(1, config.clone());
    let mut journal = Journal::open(journal_path).map_err(|e| e.to_string())?;
    let mut trace = Trace::default();
    let mut server_ms: Vec<(usize, f64)> = Vec::new();
    let mut op = 0u64;
    for list in per_tenant {
        for Answered { job, reply, timed } in list {
            op += 1;
            let bytes = inputs.request_bytes(job);
            let root = trace.begin("request", op, None);
            let request = trace.time("serve.decode", op, Some(root), || {
                Json::parse_bytes(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|j| Request::from_json(&j).map_err(|e| e.to_string()))
            })?;
            let Request::Detect {
                tenant,
                job: job_id,
                fault_seed,
                frame,
            } = request
            else {
                return Err("replayed request is not a detect".into());
            };
            let verdict = trace.time("serve.admission", op, Some(root), || map.assess(&tenant, 0));
            if verdict != Verdict::Admit {
                report.mismatch(format!("{job_id}: replica admission shed"));
            }
            let entry = JournalEntry::Job(JournaledJob {
                tenant: tenant.clone(),
                job: job_id.clone(),
                fault_seed,
                frame: frame.clone(),
            });
            trace
                .time("serve.journal", op, Some(root), || journal.append(&entry))
                .map_err(|e| e.to_string())?;
            let image = trace
                .time("serve.render", op, Some(root), || frame.render())
                .map_err(|e| e.to_string())?;
            let engine_span = if job.tenant < SOFTWARE_TENANTS {
                "runtime.serve_frame"
            } else if inputs.names[job.tenant].starts_with("hw4:") {
                "hw.serve_frame.hw4"
            } else {
                "hw.serve_frame.hw1"
            };
            let (kind, record) = map.with_tenant(&tenant, |t| {
                let record = trace.time(engine_span, op, Some(root), || {
                    t.engine.serve_frame(&image, &FaultPlan::none())
                });
                (t.engine.kind().to_string(), record)
            });
            let response = Response::FrameResult {
                tenant: tenant.clone(),
                job: job_id.clone(),
                engine: kind,
                record,
            };
            let encoded = trace.time("serve.encode", op, Some(root), || {
                wire::encode_frame(response.to_json().to_string().as_bytes())
            });
            let done = JournalEntry::Done {
                tenant,
                job: job_id.clone(),
            };
            trace
                .time("serve.journal", op, Some(root), || journal.append(&done))
                .map_err(|e| e.to_string())?;
            trace.end(root);
            if !matches!(&encoded, Ok(frame) if frame[4..] == reply[..]) {
                report.mismatch(format!("{job_id}: daemon != replica"));
            }
            if let Some(i) = timed.filter(|&i| plan.reference[i]) {
                server_ms.push((i, trace.spans()[root].ms()));
            }
        }
    }
    for (metric, span) in [
        ("serve.decode_ms", "serve.decode"),
        ("serve.admission_ms", "serve.admission"),
        ("serve.journal_ms", "serve.journal"),
        ("serve.render_ms", "serve.render"),
        ("serve.encode_ms", "serve.encode"),
        ("runtime.serve_frame_ms", "runtime.serve_frame"),
        ("hw.serve_frame_ms.hw1", "hw.serve_frame.hw1"),
        ("hw.serve_frame_ms.hw4", "hw.serve_frame.hw4"),
    ] {
        let (value, samples) = trace.median_self_ms(span);
        report.metric(metric, value, samples);
    }

    // The f32 scan on the same frames, through the decomposed calls.
    let detector_config = DetectorConfig {
        datapath: config.datapath,
        temporal: false,
        ..DetectorConfig::two_scale()
    };
    let dim = detector_config.params.cell_descriptor_len();
    let full = FeaturePyramidDetector::new(daemon_model(dim), detector_config.clone());
    let nms_off: FeaturePyramidDetector = DetectorBuilder::new(daemon_model(dim))
        .scales(detector_config.scales.clone())
        .threshold(detector_config.threshold)
        .datapath(detector_config.datapath)
        .no_nms()
        .build()
        .map_err(|e| e.to_string())?;
    let order: Vec<(usize, &Answered)> = per_tenant
        .iter()
        .flatten()
        .filter_map(|a| match (a.job.frame, a.timed) {
            (FrameRef::Vga(k), Some(i)) if plan.reference[i] => Some((k, a)),
            _ => None,
        })
        .take(TRACED_DETECT_FRAMES)
        .collect();
    let attempted = report.attempted;
    let detections = crate::library::detect_layers(report, &inputs.frames, &full, &nms_off, |op| {
        order.get(op as usize).map(|&(k, _)| k)
    });
    report.attempted = attempted;

    // The rebuilt detector must be the daemon's: a frame served healthy
    // (full scan) publishes exactly its detections.
    let mut healthy = 0usize;
    for ((_, answered), dets) in order.iter().zip(&detections) {
        let record = Json::parse_bytes(&answered.reply)
            .ok()
            .and_then(|j| j.get("record").cloned());
        let Some(record) = record else {
            report.mismatch(format!("{}: unparsable frame result", answered.job.job));
            continue;
        };
        if record.get("state").and_then(Json::as_str) != Some("healthy") {
            continue;
        }
        healthy += 1;
        let expect = Json::Array(dets.iter().map(ToJson::to_json).collect());
        if record.get("boxes") != Some(&expect) {
            report.mismatch(format!("{}: daemon != rebuilt detector", answered.job.job));
        }
    }
    report.input(
        "traced detect frames / checked against the daemon (healthy)",
        format!("{} / {healthy}", order.len()),
    );

    // Queue wait: client latency minus the server-side layer times of
    // the same request, at the reference rate; the accounted share is
    // the server-side part of that latency.
    let waits: Vec<f64> = server_ms.iter().map(|&(i, s)| latency[i] - s).collect();
    let shares: Vec<f64> = server_ms.iter().map(|&(i, s)| s / latency[i]).collect();
    report.metric("serve.queue_wait_ms", median(&waits), waits.len());
    report.metric("trace.accounted_frac", median(&shares), shares.len());
    Ok(())
}
