//! Talk to a running `server` example over the framed TCP protocol.
//!
//! ```text
//! cargo run --example server   # terminal 1
//! cargo run --example client   # terminal 2
//! ```
//!
//! Connects to `VO_NET_ADDR` (default `127.0.0.1:7878`), pins a
//! snapshot, runs VOQL over the wire, commits an update, and shows the
//! ops endpoints. Set `VO_NET_SECRET` to match the server's secret.

use penguin_vo::prelude::*;

/// Run one statement and print what came back: the outcome, or the
/// server's typed error — a refused statement does not end the session.
fn run(client: &mut VoClient, voql: &str) {
    match client.voql(voql) {
        Ok(VoqlResult::Instances(instances)) => {
            for i in &instances {
                println!("{}", i.to_json().pretty());
            }
        }
        Ok(VoqlResult::Updated(n)) => println!("updated {n} instance(s) at the head"),
        Ok(VoqlResult::Deleted(n)) => println!("deleted {n} instance(s) at the head"),
        Ok(VoqlResult::Text(text)) => println!("{text}"),
        Err(e) => println!("error: {e}"),
    }
}

fn main() {
    let addr = std::env::var("VO_NET_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".into());
    let opts = ClientOptions {
        secret: std::env::var("VO_NET_SECRET").ok(),
        ..ClientOptions::default()
    };
    let mut client = match VoClient::connect(&addr, opts) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach {addr}: {e}");
            eprintln!("start one first: cargo run --example server");
            std::process::exit(1);
        }
    };
    if let Err(e) = session(&mut client) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn session(client: &mut VoClient) -> std::result::Result<(), NetError> {
    let hello = client.hello().expect("handshake happened").clone();
    println!(
        "connected to {} (protocol v{}, database version {})",
        hello.server, hello.proto, hello.version
    );

    // Queries run lock-free against this connection's pinned snapshot.
    run(client, "GET omega WHERE course_id = 'CS345'");

    // Updates re-run at head through the server's single-writer funnel.
    run(
        client,
        "UPDATE omega SET title = 'Distributed Databases' WHERE course_id = 'CS345'",
    );

    // Re-pin to see the committed state from this connection.
    let version = client.pin()?;
    println!("re-pinned at version {version}");
    run(client, "SHOW OBJECT omega");

    let health = client.health()?;
    println!(
        "server health: {}",
        health.field("status").unwrap().as_str().unwrap_or("?")
    );
    let stats = client.stats()?;
    println!(
        "server stats : {} requests ok, {} connections live",
        stats.field("requests_ok").unwrap().as_i64().unwrap_or(0),
        stats
            .field("active_connections")
            .unwrap()
            .as_i64()
            .unwrap_or(0)
    );
    Ok(())
}
