//! The procs-backend worker entry point: `ProcsRuntime::launch`
//! re-executes the current binary as `<exe> worker --rank .. --world ..`,
//! and this module turns those flags into `actcomp_runtime::WorkerArgs`.
//! The benchmark launches plain worlds (no bandwidth cap, no fault
//! injection), so only the flags such a launch passes are accepted.

use actcomp_net::TransportKind;
use actcomp_runtime::WorkerArgs;
use std::collections::HashMap;
use std::time::Duration;

const FLAGS: [&str; 7] = [
    "--rank",
    "--world",
    "--coord",
    "--transport",
    "--seed",
    "--epoch",
    "--rendezvous-timeout-ms",
];

pub fn run(args: &[String]) {
    let parsed = match parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: worker: {e}");
            std::process::exit(2);
        }
    };
    let rank = parsed.rank;
    actcomp_tensor::pool::set_threads(1);
    if let Err(e) = actcomp_runtime::run_worker(parsed) {
        eprintln!("worker rank {rank}: error: {e}");
        std::process::exit(1);
    }
}

fn parse(args: &[String]) -> Result<WorkerArgs, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if !FLAGS.contains(&key.as_str()) {
            return Err(format!("unexpected flag '{key}'"));
        }
        let value = it.next().ok_or_else(|| format!("{key} expects a value"))?;
        kv.insert(key.as_str(), value.as_str());
    }
    let get = |key: &str| -> Result<&str, String> {
        kv.get(key)
            .copied()
            .ok_or_else(|| format!("{key} is required"))
    };
    let num = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse::<u64>()
            .map_err(|_| format!("{key} expects an unsigned integer"))
    };
    let count = |key: &str| -> Result<usize, String> {
        usize::try_from(num(key)?).map_err(|_| format!("{key} is out of range"))
    };
    Ok(WorkerArgs {
        rank: count("--rank")?,
        world: count("--world")?,
        coord: get("--coord")?.to_string(),
        kind: TransportKind::parse(get("--transport")?).map_err(|e| e.to_string())?,
        seed: num("--seed")?,
        link_mbps: None,
        fail_after_rendezvous: false,
        epoch: u32::try_from(num("--epoch")?).map_err(|_| "--epoch is out of range")?,
        fault: None,
        rendezvous_timeout: Duration::from_millis(num("--rendezvous-timeout-ms")?),
    })
}
