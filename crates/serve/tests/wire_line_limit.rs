//! Bounded request lines: a server session buffers at most 64 KiB of
//! one request line. A longer line is drained to its newline without
//! being kept, answered with a `malformed` reply, counted as a protocol
//! error, and the session goes on serving — over stdio and TCP alike.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use tailors_serve::wire::{decode_reply, encode_request_into, serve_lines, WireTcpServer};
use tailors_serve::{RuntimeConfig, ServeError, ServiceRuntime, SimRequest, Work};
use tailors_sim::Variant;

#[test]
fn over_long_request_lines_are_refused_and_the_session_survives() {
    let runtime = Arc::new(ServiceRuntime::new(RuntimeConfig::default()));
    let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
    let mut good = String::new();
    encode_request_into(2, &Work::Sim(req), &mut good);
    // A valid request, padded with legal whitespace to 1 MiB.
    let padded = format!("{good}{}", " ".repeat((1 << 20) - good.len()));
    let input = format!("{padded}\n{good}\n");
    let check = |out: &[u8]| {
        let lines: Vec<&str> = std::str::from_utf8(out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        let (id, refused) = decode_reply(lines[0]).unwrap();
        assert_eq!(id, None);
        let Err(ServeError::BadRequest(why)) = refused else {
            panic!("over-long line was not refused: {refused:?}")
        };
        assert!(why.contains("65536-byte limit"), "{why}");
        let (id, served) = decode_reply(lines[1]).unwrap();
        assert_eq!(id, Some(2));
        assert!(served.is_ok());
    };

    let mut out = Vec::new();
    let report = serve_lines(&runtime, input.as_bytes(), &mut out).unwrap();
    assert_eq!((report.protocol_errors, report.served), (1, 1));
    check(&out);

    // The TCP session applies the same cap.
    let mut server = WireTcpServer::spawn(Arc::clone(&runtime), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(input.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut out = String::new();
    for _ in 0..2 {
        reader.read_line(&mut out).unwrap();
    }
    check(out.as_bytes());
    drop((stream, reader));
    server.stop();
}
