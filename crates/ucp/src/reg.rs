//! Registration / endpoint cache: the "millions of users" cost model.
//!
//! Real UCX deployments (MPI4Dask, distributed-ucxx) pay a substantial
//! one-time cost the first time a process pair exchanges a message
//! (endpoint wireup: address exchange + transport setup) and the first
//! time a buffer is handed to the NIC/driver (memory registration:
//! pinning + IB/CUDA mapping). Both are amortized in practice by caches —
//! UCX's rcache, Open MPI's leave_pinned, and pool allocators that map
//! once. This module models exactly that: a tick-based LRU over a byte
//! budget for buffer registrations, and an LRU over an entry cap for
//! endpoint wireups.
//!
//! Determinism: ticks are logical (one per touch), both LRU orders are
//! `BTreeMap`s keyed by tick, and the maps are keyed, never iterated for
//! decisions — the same event sequence always evicts the same entries.

use std::collections::BTreeMap;

use rucx_compat::idmap::IdMap;

/// What one cache touch cost: how many mapping operations were paid and
/// how many cached entries were torn down to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TouchOutcome {
    pub hit: bool,
    pub evicted: u64,
}

/// LRU caches for endpoint wireups and buffer registrations.
#[derive(Debug)]
pub struct RegCache {
    /// When false, nothing is retained: every touch is a miss and every
    /// mapping is torn down right after use (miss and evict move in
    /// lockstep, so `miss - evict` still equals live mappings: zero).
    cache: bool,
    tick: u64,
    /// (src,dst) -> last-use tick.
    eps: IdMap<(u32, u32), u64>,
    /// last-use tick -> (src,dst); the `BTreeMap` front is the LRU victim.
    ep_order: BTreeMap<u64, (u32, u32)>,
    /// buffer id -> (mapped bytes, last-use tick).
    regs: IdMap<u64, (u64, u64)>,
    /// last-use tick -> buffer id.
    reg_order: BTreeMap<u64, u64>,
    /// Total mapped bytes currently cached.
    reg_bytes: u64,
}

impl RegCache {
    pub fn new(cache: bool) -> Self {
        RegCache {
            cache,
            tick: 0,
            eps: IdMap::default(),
            ep_order: BTreeMap::new(),
            regs: IdMap::default(),
            reg_order: BTreeMap::new(),
            reg_bytes: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// First message on a (src,dst) pair pays the wireup; later ones hit
    /// until the LRU cap (`max`) evicts the pair.
    pub fn touch_ep(&mut self, key: (u32, u32), max: usize) -> TouchOutcome {
        let t = self.next_tick();
        if !self.cache {
            return TouchOutcome {
                hit: false,
                evicted: 1,
            };
        }
        if let Some(old) = self.eps.insert(key, t) {
            self.ep_order.remove(&old);
            self.ep_order.insert(t, key);
            return TouchOutcome {
                hit: true,
                evicted: 0,
            };
        }
        self.ep_order.insert(t, key);
        let mut evicted = 0;
        while self.eps.len() > max.max(1) {
            if let Some((&old, &victim)) = self.ep_order.iter().next() {
                self.ep_order.remove(&old);
                self.eps.remove(&victim);
                evicted += 1;
            } else {
                break;
            }
        }
        TouchOutcome {
            hit: false,
            evicted,
        }
    }

    /// Touch a buffer registration of `bytes` bytes; `budget` is the cache
    /// capacity in mapped bytes. A miss maps the buffer (caller charges
    /// the latency) and may evict older mappings to fit.
    pub fn register(&mut self, id: u64, bytes: u64, budget: u64) -> TouchOutcome {
        let t = self.next_tick();
        if !self.cache {
            // Map for this operation, unmap right after: one miss, one
            // evict, nothing retained.
            return TouchOutcome {
                hit: false,
                evicted: 1,
            };
        }
        if let Some(&(sz, old)) = self.regs.get(&id) {
            self.regs.insert(id, (sz, t));
            self.reg_order.remove(&old);
            self.reg_order.insert(t, id);
            return TouchOutcome {
                hit: true,
                evicted: 0,
            };
        }
        self.regs.insert(id, (bytes, t));
        self.reg_order.insert(t, id);
        self.reg_bytes += bytes;
        let mut evicted = 0;
        // A buffer larger than the whole budget still gets mapped (it must
        // be, to transfer) — it just evicts everything else and will be
        // the next victim.
        while self.reg_bytes > budget && self.regs.len() > 1 {
            if let Some((&old, &victim)) = self.reg_order.iter().next() {
                self.reg_order.remove(&old);
                if let Some((sz, _)) = self.regs.remove(&victim) {
                    self.reg_bytes -= sz;
                }
                evicted += 1;
            } else {
                break;
            }
        }
        TouchOutcome {
            hit: false,
            evicted,
        }
    }

    /// Drop a buffer's registration when the buffer itself is freed (the
    /// mapping cannot outlive the allocation). Returns true if one was
    /// cached — the caller counts it as an eviction so the
    /// `miss - evict == live` invariant keeps holding.
    pub fn invalidate(&mut self, id: u64) -> bool {
        if let Some((sz, t)) = self.regs.remove(&id) {
            self.reg_order.remove(&t);
            self.reg_bytes -= sz;
            true
        } else {
            false
        }
    }

    /// Registrations currently mapped (`ucp.reg.miss - ucp.reg.evict` must
    /// equal this at any quiescent point — the leak gate).
    pub fn live_mappings(&self) -> usize {
        self.regs.len()
    }

    /// Mapped bytes currently cached.
    pub fn live_bytes(&self) -> u64 {
        self.reg_bytes
    }

    /// Cached endpoint wireups.
    pub fn live_endpoints(&self) -> usize {
        self.eps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_cache_hits_after_first_touch() {
        let mut c = RegCache::new(true);
        assert!(!c.touch_ep((0, 1), 8).hit);
        assert!(c.touch_ep((0, 1), 8).hit);
        assert!(!c.touch_ep((1, 0), 8).hit);
        assert_eq!(c.live_endpoints(), 2);
    }

    #[test]
    fn ep_lru_evicts_least_recent() {
        let mut c = RegCache::new(true);
        c.touch_ep((0, 1), 2);
        c.touch_ep((0, 2), 2);
        c.touch_ep((0, 1), 2); // refresh (0,1)
        let out = c.touch_ep((0, 3), 2); // evicts (0,2)
        assert_eq!(out.evicted, 1);
        assert!(c.touch_ep((0, 1), 2).hit, "refreshed entry survived");
        assert!(!c.touch_ep((0, 2), 2).hit, "LRU victim was evicted");
    }

    #[test]
    fn reg_budget_evicts_by_bytes() {
        let mut c = RegCache::new(true);
        assert!(!c.register(1, 600, 1000).hit);
        assert!(!c.register(2, 300, 1000).hit);
        assert!(c.register(1, 600, 1000).hit);
        // 600+300+400 > 1000: evicts LRU (id 2 — id 1 was refreshed).
        let out = c.register(3, 400, 1000);
        assert_eq!(out.evicted, 1);
        assert!(c.register(1, 600, 1000).hit);
        // Re-inserting id 2 overflows again and evicts id 3 (now LRU).
        let out = c.register(2, 300, 1000);
        assert!(!out.hit);
        assert_eq!(out.evicted, 1);
        assert_eq!(c.live_bytes(), 600 + 300);
        assert_eq!(c.live_mappings(), 2);
    }

    #[test]
    fn oversized_buffer_still_maps() {
        let mut c = RegCache::new(true);
        c.register(1, 100, 1000);
        let out = c.register(2, 5000, 1000);
        assert_eq!(out.evicted, 1, "everything else evicted");
        assert_eq!(c.live_mappings(), 1);
        assert_eq!(c.live_bytes(), 5000);
    }

    #[test]
    fn cache_off_never_retains_and_balances_evictions() {
        let mut c = RegCache::new(false);
        let mut miss = 0;
        let mut evict = 0;
        for i in 0..10u64 {
            let o = c.register(i % 3, 100, 1 << 30);
            assert!(!o.hit);
            miss += 1;
            evict += o.evicted;
        }
        assert_eq!(c.live_mappings(), 0);
        assert_eq!(miss - evict, 0, "miss - evict == live == 0");
    }

    #[test]
    fn invalidate_keeps_leak_invariant() {
        let mut c = RegCache::new(true);
        c.register(1, 100, 1 << 30);
        c.register(2, 100, 1 << 30);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.live_mappings(), 1);
        assert_eq!(c.live_bytes(), 100);
    }
}
