//! Connection churn must not leak descriptors: once a client closes
//! its connection, the [`NetServer`] closes every socket it held for it
//! and drops the connection's thread handle, so a long-lived server's
//! open files follow its live connections, not its uptime.
//!
//! This is its own test binary because it counts the whole process's
//! open descriptors, which concurrently running tests would disturb.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use psi_core::{DeploymentSpec, NetServer, NetServerConfig, SmartPsi, SmartPsiConfig};
use psi_datasets::generators;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn closed_connections_release_their_sockets() {
    let g = generators::erdos_renyi(150, 600, 3, 7);
    let service =
        SmartPsi::new(g, SmartPsiConfig::default()).deploy(&DeploymentSpec::new().workers(1));
    let mut server =
        NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    let start = open_fds();

    for id in 0..200 {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        writeln!(stream, r#"{{"op":"stats","id":{id}}}"#).expect("write");
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).expect("read");
        assert!(line.contains("\"ok\":true"), "{line}");
    }

    // Server-side teardown runs on the connection threads after each
    // client's EOF, so give it a moment to catch up.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = open_fds();
        if now <= start + 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "200 closed connections left {now} fds open (started at {start})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let report = server.shutdown(Duration::from_secs(2));
    assert_eq!(report.aborted, 0, "{report:?}");
}
