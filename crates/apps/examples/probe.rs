use lcm_apps::common::{execute, SystemKind};
use lcm_apps::threshold::Threshold;
use lcm_apps::unstructured::Unstructured;
use lcm_cstar::RuntimeConfig;
use lcm_sim::MachineConfig;

fn main() {
    let cfg = RuntimeConfig::default();
    println!("== Unstructured (paper scale, 32 procs, 60 iters) ==");
    let w = Unstructured {
        nodes: 256,
        edges: 1024,
        iters: 60,
        seed: 42,
    };
    for sys in SystemKind::all() {
        let (_, r, _) = execute(sys, MachineConfig::new(32), cfg, &w);
        println!("{:8} time={:>12} misses={:>8} (rr={} rl={} wr={} wl={} up={}) msgs={} inval={} flush={} cc={}",
            r.system.label(), r.time, r.misses(),
            r.totals.read_miss_remote, r.totals.read_miss_local,
            r.totals.write_miss_remote, r.totals.write_miss_local, r.totals.upgrades,
            r.totals.msgs_sent, r.totals.invalidations_sent, r.totals.flushes, r.totals.clean_copies);
    }
    println!("== Threshold (256x256, 16 procs, 10 iters) ==");
    let w = Threshold {
        size: 256,
        iters: 10,
        threshold: 1.0,
        sources: 6,
    };
    for sys in SystemKind::all() {
        let (out, r, _) = execute(sys, MachineConfig::new(16), cfg, &w);
        println!("{:8} time={:>12} misses={:>8} (rr={} rl={} wr={} wl={} up={}) msgs={} inval={} flush={} cc={} updates={}",
            r.system.label(), r.time, r.misses(),
            r.totals.read_miss_remote, r.totals.read_miss_local,
            r.totals.write_miss_remote, r.totals.write_miss_local, r.totals.upgrades,
            r.totals.msgs_sent, r.totals.invalidations_sent, r.totals.flushes, r.totals.clean_copies, out.1);
    }
}
