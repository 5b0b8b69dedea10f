//! Load clients: a closed loop and an open loop that times every request
//! from when it was due.
//!
//! The existing `serve_load::run_requests` sleeps until a request is due
//! and then starts its clock, so a stall hides its cost to every request
//! queued behind it. The open loop here writes each request at its due
//! time from one thread and reads responses on another, and latency is
//! measured from the due time.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request's life, in nanoseconds since the loop started, with
/// what the caller kept of its response.
#[derive(Clone, Debug)]
pub struct Sample<R> {
    /// Index into the request list.
    pub idx: usize,
    /// When the request was due (the send time in a closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub reply: R,
}

impl<R> Sample<R> {
    /// Latency from the due time: what the requester waited.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Time the server held the request: send to response.
    pub fn service_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.sent_ns)
    }
}

fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn connect(addr: &str) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    // One small line per round trip: Nagle plus delayed ACK would add
    // ~40ms to each.
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    line.truncate(line.trim_end().len());
    Ok(line)
}

/// Sends `lines` in order over one connection, each after the previous
/// response, until `run_for` has passed or the list is used up. `keep`
/// reduces each response line (without its newline) to what the caller
/// needs; sample storage is sized by `lines`, not by how many complete.
pub fn closed_loop<R>(
    addr: &str,
    lines: &[String],
    run_for: Duration,
    keep: impl Fn(&str) -> R,
) -> std::io::Result<Vec<Sample<R>>> {
    let (mut reader, mut writer) = connect(addr)?;
    let start = Instant::now();
    let mut out = Vec::with_capacity(lines.len());
    for (idx, line) in lines.iter().enumerate() {
        if start.elapsed() >= run_for {
            break;
        }
        let sent_ns = since(start);
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        let resp = read_response(&mut reader)?;
        out.push(Sample {
            idx,
            due_ns: sent_ns,
            sent_ns,
            recv_ns: since(start),
            reply: keep(&resp),
        });
    }
    Ok(out)
}

/// Sends `lines[i]` at `due_us[i]` microseconds after start on one
/// connection, whether or not earlier responses have arrived, and
/// reads the in-order responses on a second thread; `keep` as for
/// [`closed_loop`].
pub fn open_loop<R>(
    addr: &str,
    lines: &[String],
    due_us: &[u64],
    keep: impl Fn(&str) -> R,
) -> std::io::Result<Vec<Sample<R>>> {
    assert_eq!(lines.len(), due_us.len(), "one due time per request");
    let (mut reader, mut writer) = connect(addr)?;
    let start = Instant::now();
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<Vec<u64>> {
            let mut sent = Vec::with_capacity(lines.len());
            for (line, &due) in lines.iter().zip(due_us) {
                let due = Duration::from_micros(due);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                sent.push(since(start));
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            Ok(sent)
        });
        let mut received = Vec::with_capacity(lines.len());
        let mut read_err = None;
        for _ in 0..lines.len() {
            match read_response(&mut reader) {
                Ok(line) => received.push((since(start), keep(&line))),
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
        }
        if read_err.is_some() {
            // Unblock a sender stuck on a full socket.
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().expect("open-loop sender thread panicked");
        if let Some(e) = read_err {
            return Err(e);
        }
        let sent = sent?;
        Ok(received
            .into_iter()
            .enumerate()
            .map(|(idx, (recv_ns, reply))| Sample {
                idx,
                due_ns: due_us[idx] * 1000,
                sent_ns: sent[idx],
                recv_ns,
                reply,
            })
            .collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An echo server whose first answer stalls for `stall`.
    fn stalling_echo(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut first = true;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap() == 0 {
                    return;
                }
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                writer.write_all(line.as_bytes()).unwrap();
            }
        });
        (addr, h)
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        let (addr, server) = stalling_echo(Duration::from_millis(200));
        let lines: Vec<String> = (0..5).map(|i| format!("r{i}")).collect();
        let due_us: Vec<u64> = (0..5).map(|i| i * 20_000).collect();
        let samples = open_loop(&addr, &lines, &due_us, str::to_owned).unwrap();
        server.join().unwrap();
        assert_eq!(samples.len(), 5);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.reply, format!("r{i}"));
            // The generator kept its schedule through the stall.
            assert!(
                s.late_ns() < 15_000_000,
                "request {i} sent {}ns late",
                s.late_ns()
            );
            // Every request waited for the stalled first answer: from
            // its due time, request i cannot finish before 200ms.
            let floor = 200_000_000 - due_us[i] * 1000;
            assert!(
                s.latency_ns() >= floor,
                "request {i}: {}ns < {floor}ns",
                s.latency_ns()
            );
        }
    }

    #[test]
    fn closed_loop_stops_at_the_end_of_the_list() {
        let (addr, server) = stalling_echo(Duration::ZERO);
        let lines: Vec<String> = (0..7).map(|i| format!("x{i}")).collect();
        let samples = closed_loop(&addr, &lines, Duration::from_secs(5), str::to_owned).unwrap();
        server.join().unwrap();
        let got: Vec<&str> = samples.iter().map(|s| s.reply.as_str()).collect();
        assert_eq!(got, ["x0", "x1", "x2", "x3", "x4", "x5", "x6"]);
        assert!(samples.iter().all(|s| s.due_ns == s.sent_ns));
    }
}
