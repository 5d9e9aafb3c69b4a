//! Shared-memory-as-cache walkthrough: drive the CIAO on-chip memory
//! architecture (capacity from the unused scratchpad, address translation,
//! direct-mapped tag/data layout) directly through its public API, without
//! the simulator.
//!
//! ```sh
//! cargo run --release --example shared_memory_cache
//! ```

use ciao_suite::ciao::translation::TranslationUnit;
use ciao_suite::ciao::SharedMemCache;
use ciao_suite::sim::redirect::{RedirectCache, RedirectLookup};

fn main() {
    // 48 KB scratchpad; suppose resident CTAs use 16 KB (like PVC at 33%).
    let mut cache = SharedMemCache::new(48 * 1024, 1);
    cache.set_capacity(32 * 1024);
    println!(
        "scratchpad: 48 KB, CTAs use 16 KB -> CIAO reserves {} KB as a direct-mapped cache ({} lines of 128 B)",
        cache.capacity_bytes() / 1024,
        cache.capacity_bytes() / 128
    );

    // Show the §IV-B bit-sliced translation for a few global addresses.
    let unit = TranslationUnit::new(32 * 1024, 0).expect("enough space");
    println!("\naddress translation (data block vs tag placement):");
    for addr in [0x0u64, 0x80, 0x1000, 0xdead_0000 & 0xffff_ff80] {
        let loc = unit.translate(addr);
        println!(
            "  global {:#010x} -> line {:>3}: data (group {}, row {:>3}), tag (group {}, row {:>3}, slot {:>2})",
            addr, loc.line_index, loc.data_group, loc.data_row, loc.tag_group, loc.tag_row, loc.tag_slot
        );
    }

    // Exercise the cache behaviour of an isolated (interfering) warp.
    println!("\nredirected accesses of an isolated warp:");
    let warp = 7;
    for i in 0..4u64 {
        let addr = 0x4000_0000 + i * 128;
        match cache.lookup(addr, warp, false) {
            RedirectLookup::Miss => {
                cache.fill(addr, warp);
                println!("  {:#010x}: miss -> fetched from L2 and filled", addr);
            }
            RedirectLookup::Hit { latency } => println!("  {:#010x}: hit ({latency} cycle)", addr),
            RedirectLookup::Unavailable => println!("  {:#010x}: structure unavailable", addr),
        }
    }
    for i in 0..4u64 {
        let addr = 0x4000_0000 + i * 128;
        let outcome = cache.lookup(addr, warp, false);
        println!("  {:#010x}: re-reference -> {:?}", addr, outcome);
    }
    println!(
        "\nhits: {}, misses: {}, utilisation: {:.4}",
        cache.hits(),
        cache.misses(),
        cache.utilization()
    );

    // When a new CTA takes the whole scratchpad, the structure gracefully
    // reports Unavailable and the SM falls back to the L1D path.
    cache.set_capacity(0);
    println!(
        "\nafter a CTA claims the whole scratchpad: {:?}",
        cache.lookup(0x4000_0000, warp, false)
    );
}
