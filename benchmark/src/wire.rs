//! Client side of the daemon's wire protocol, written from its
//! specification (docs/SERVING.md): every frame is a 4-byte little-endian
//! length followed by that many bytes of UTF-8 JSON.

use crate::json::{escape_into, Json};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Largest reply the harness accepts (the daemon's own cap).
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// Reads one frame; an early EOF is an error (the daemon always replies).
pub fn read_frame(stream: &mut impl Read) -> io::Result<String> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("reply of {len} bytes exceeds the frame cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    String::from_utf8(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// One persistent connection to the daemon.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to the daemon's Unix socket. Replies that take longer than
    /// `timeout` fail the request instead of hanging the run.
    pub fn connect(socket: &Path, timeout: Duration) -> io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream })
    }

    /// Sends `payload` and returns the raw reply.
    pub fn request_raw(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut self.stream, payload)?;
        read_frame(&mut self.stream)
    }

    /// Sends `payload`, parses the reply, and fails unless it says
    /// `"ok":true` — a refused request is a failed operation.
    pub fn request(&mut self, payload: &str) -> Result<Json, String> {
        let raw = self.request_raw(payload).map_err(|e| e.to_string())?;
        let reply = Json::parse(&raw).map_err(|e| format!("unparsable reply: {e}"))?;
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(reply),
            _ => Err(format!("daemon refused: {}", &raw[..raw.len().min(200)])),
        }
    }
}

/// One-shot request on a fresh connection (probes, `stats`, `snapshot`).
pub fn request_once(socket: &Path, payload: &str, timeout: Duration) -> Result<Json, String> {
    Client::connect(socket, timeout)
        .map_err(|e| e.to_string())?
        .request(payload)
}

/// `{"cmd":"<cmd>"}`.
pub fn simple(cmd: &str) -> String {
    format!("{{\"cmd\":\"{cmd}\"}}")
}

/// `{"cmd":"query-matches","id":N}`.
pub fn query_matches(id: u64) -> String {
    format!("{{\"cmd\":\"query-matches\",\"id\":{id}}}")
}

/// `{"cmd":"explain","a":A,"b":B}`.
pub fn explain(a: u64, b: u64) -> String {
    format!("{{\"cmd\":\"explain\",\"a\":{a},\"b\":{b}}}")
}

/// `{"cmd":"ingest-batch","records":[<line>, ...]}` from flat-format lines
/// exactly as `mergepurge generate` wrote them.
pub fn ingest_batch(lines: &[String]) -> String {
    let mut out = String::with_capacity(64 + lines.iter().map(|l| l.len() + 4).sum::<usize>());
    out.push_str("{\"cmd\":\"ingest-batch\",\"records\":[");
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, line);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"stats\"}").unwrap();
        assert_eq!(&buf[..4], &15u32.to_le_bytes());
        assert_eq!(read_frame(&mut &buf[..]).unwrap(), "{\"cmd\":\"stats\"}");
        assert!(read_frame(&mut &buf[..3]).is_err());
    }

    #[test]
    fn oversized_reply_is_rejected_before_allocating() {
        let buf = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn ingest_request_is_valid_json_with_every_line() {
        let lines = vec![
            "1|123|ANA||O\"BRIEN|1|A ST||X|NY|10001".to_string(),
            "|||||||||||".to_string(),
        ];
        let req = Json::parse(&ingest_batch(&lines)).unwrap();
        assert_eq!(req.get("cmd").and_then(Json::as_str), Some("ingest-batch"));
        let recs = req.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].as_str(), Some(lines[0].as_str()));
    }
}
