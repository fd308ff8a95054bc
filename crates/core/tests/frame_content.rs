//! Frame contents against a flat per-block byte model: a small manager,
//! whose frames describe blocks that hold the file's own bytes, driven by
//! installs, write-behind absorbs, merges into resident blocks, sync-write
//! refreshes, flush rounds, invalidations and evicting installs, with
//! payloads that are the file's bytes, the file's bytes with one byte
//! flipped, zeros, or a descriptor of the block's own content (the
//! `*Described` access kinds), over the whole block or part of it. The
//! model is one
//! map of block → (valid span, dirty span, 4096 bytes), written where each
//! op lands; it knows nothing of descriptors. After every step each
//! resident block reads back its model bytes, and every flush snapshot the
//! step produced — a flush round's or a dirty victim's — carries its model
//! dirty span and bytes.

use kcache::{
    Access, AccessKind, AccessOutcome, BlockKey, BufferManager, EvictPolicy, FlushItem, Span,
    WriteOutcome, CACHE_BLOCK_SIZE,
};
use proptest::prelude::*;
use pvfs::{Content, Fid};
use sim_net::NodeId;
use std::collections::BTreeMap;

const HOME: NodeId = NodeId(1);

/// Blocks of two files, more of them than the four frames hold.
fn key(b: u64) -> BlockKey {
    BlockKey::new(Fid(1 + b % 2), b)
}

fn span_of(code: u8) -> Span {
    [Span::FULL, Span::new(0, 1024), Span::new(1024, 2048), Span::new(3000, 4096)]
        [code as usize % 4]
}

#[derive(Debug, Clone, Copy)]
enum Payload {
    /// The file's bytes.
    Pattern,
    /// The file's bytes, handed over as a descriptor of them.
    Described,
    /// The file's bytes, one of them flipped.
    Flipped(u16),
    Zeros,
}

fn payload(k: BlockKey, span: Span, p: Payload) -> Vec<u8> {
    let len = span.len() as usize;
    match p {
        Payload::Pattern | Payload::Described => {
            Content::new(k.fid, k.offset() + span.start as u64).generate(len)
        }
        Payload::Flipped(at) => {
            let mut v = payload(k, span, Payload::Pattern);
            v[at as usize % len] ^= 0x5a;
            v
        }
        Payload::Zeros => vec![0; len],
    }
}

#[derive(Debug, Clone)]
enum Op {
    Install(u64, Span, Payload),
    Absorb(u64, Span, Payload),
    Update(u64, Span, Payload),
    FlushRound,
    Invalidate(u64),
}

struct Held {
    valid: Span,
    dirty: Span,
    bytes: Vec<u8>,
}

impl Held {
    fn fresh(span: Span, bytes: &[u8], dirty: bool) -> Held {
        let mut held = Held {
            valid: span,
            dirty: if dirty { span } else { Span::EMPTY },
            bytes: vec![0; CACHE_BLOCK_SIZE],
        };
        held.bytes[span.start as usize..span.end as usize].copy_from_slice(bytes);
        held
    }

    fn overlay(&mut self, span: Span, bytes: &[u8]) {
        self.bytes[span.start as usize..span.end as usize].copy_from_slice(bytes);
        self.valid = self.valid.merge(span);
    }

    fn at(&self, span: Span) -> &[u8] {
        &self.bytes[span.start as usize..span.end as usize]
    }
}

/// A flush snapshot against the model: the block's whole dirty span, its
/// model bytes.
fn check_flush(model: &BTreeMap<BlockKey, Held>, item: &FlushItem, step: usize) {
    let held = model.get(&item.key).unwrap_or_else(|| panic!("step {step}: flushed unknown block"));
    assert_eq!(item.span, held.dirty, "step {step}: {:?} flush span", item.key);
    assert!(item.data == held.at(item.span), "step {step}: {:?} flush bytes", item.key);
    assert_eq!(item.home, HOME);
}

fn run(ops: &[Op]) {
    let m = BufferManager::builder(4).policy(EvictPolicy::default()).watermarks(0, 0).build();
    let mut model: BTreeMap<BlockKey, Held> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Install(b, span, p) | Op::Absorb(b, span, p) => {
                let (k, bytes) = (key(b), payload(key(b), span, p));
                let dirty = matches!(op, Op::Absorb(..));
                let kind = match (dirty, p) {
                    (true, Payload::Described) => AccessKind::WriteDescribed { home: HOME, span },
                    (false, Payload::Described) => AccessKind::InsertDescribed { home: HOME, span },
                    (true, _) => AccessKind::Write { home: HOME, span, bytes: &bytes },
                    (false, _) => AccessKind::InsertClean { home: HOME, span, bytes: &bytes },
                };
                let taken = match m.access(k, Access::unattributed(kind)) {
                    AccessOutcome::Inserted(victim) => {
                        if let Some(item) = victim {
                            check_flush(&model, &item, step);
                        }
                        true
                    }
                    AccessOutcome::Write(w) => w == WriteOutcome::Absorbed,
                    other => panic!("step {step}: {other:?}"),
                };
                match model.get_mut(&k) {
                    Some(held) if held.valid.mergeable(span) => {
                        assert!(taken, "step {step}: a mergeable span was refused");
                        held.overlay(span, &bytes);
                        if dirty {
                            held.dirty = held.dirty.hull(span);
                        }
                    }
                    Some(_) => assert!(!dirty || !taken, "step {step}: a gap was absorbed"),
                    None if taken => {
                        model.insert(k, Held::fresh(span, &bytes, dirty));
                    }
                    None => {}
                }
            }
            Op::Update(b, span, p) => {
                let (k, bytes) = (key(b), payload(key(b), span, p));
                let updated = match p {
                    Payload::Described => m.update_if_present_described(k, span),
                    _ => m.update_if_present(k, span, &bytes),
                };
                let held = model.get_mut(&k).filter(|h| h.valid.mergeable(span));
                assert_eq!(updated, held.is_some(), "step {step}: update of {k:?}");
                if let Some(held) = held {
                    held.overlay(span, &bytes);
                    if span.covers(held.dirty) {
                        held.dirty = Span::EMPTY;
                    }
                }
            }
            Op::FlushRound => {
                let items = m.take_dirty(usize::MAX);
                let dirty: Vec<BlockKey> =
                    model.iter().filter(|(_, h)| !h.dirty.is_empty()).map(|(k, _)| *k).collect();
                let mut taken: Vec<BlockKey> = items.iter().map(|it| it.key).collect();
                taken.sort_unstable();
                assert_eq!(taken, dirty, "step {step}: one snapshot per dirty block");
                for item in &items {
                    check_flush(&model, item, step);
                    m.flush_complete(item.key, item.span);
                    model.get_mut(&item.key).unwrap().dirty = Span::EMPTY;
                }
            }
            Op::Invalidate(b) => {
                m.invalidate([key(b)]);
                model.remove(&key(b));
            }
        }
        // Evictions: the model follows the manager's resident set, and
        // holds every block in it.
        let resident = m.resident_keys();
        model.retain(|k, _| resident.contains(k));
        assert_eq!(model.keys().copied().collect::<Vec<_>>(), resident, "step {step}");
        for (k, held) in &model {
            let mut out = vec![0u8; held.valid.len() as usize];
            let read = AccessKind::Read { span: held.valid, out: &mut out };
            assert!(m.access(*k, Access::unattributed(read)).is_hit(), "step {step}: {k:?}");
            assert!(out == held.at(held.valid), "step {step}: {k:?} reads wrong bytes");
            // The tail of the valid span, as the segment a reply carries.
            let tail = Span::new(held.valid.start + held.valid.len() / 2, held.valid.end);
            let mut reply = pvfs::Payload::new();
            let read =
                AccessKind::ReadWith { span: tail, sink: &mut |src| reply.push(src.segment()) };
            assert!(m.access(*k, Access::unattributed(read)).is_hit());
            assert!(reply == *held.at(tail), "step {step}: {k:?} hands on wrong bytes");
        }
    }
}

/// The paths one at a time: a described install, a mismatching merge into
/// it (generated, then overlaid), a matching merge into a stored block, a
/// dirty described block flushed and then evicted dirty, frames passing
/// from stored tenants to described ones and back, and descriptors
/// installed, absorbed and merged into described and stored frames.
#[test]
fn scripted_paths_match_the_model() {
    use Op::*;
    use Payload::*;
    let (full, head, mid, tail) = (span_of(0), span_of(1), span_of(2), span_of(3));
    run(&[
        Install(0, full, Pattern),
        Update(0, mid, Flipped(5)),
        Install(1, head, Zeros),
        Install(1, mid, Pattern),
        Absorb(2, tail, Pattern),
        Absorb(2, mid, Pattern),
        FlushRound,
        Absorb(2, full, Pattern),
        Absorb(3, full, Flipped(0)),
        Absorb(5, full, Pattern),
        Absorb(7, full, Pattern),
        Install(9, full, Pattern),
        Invalidate(3),
        Install(11, head, Pattern),
        Install(11, tail, Flipped(9)),
        FlushRound,
        // The free list hands the frame block 20 left to block 21 next.
        Install(20, full, Pattern),
        Invalidate(20),
        Install(21, full, Zeros),
        Install(12, head, Described),
        Install(12, mid, Flipped(3)),
        Update(12, tail, Described),
        Absorb(13, mid, Described),
        Absorb(13, head, Zeros),
        Absorb(13, tail, Described),
        FlushRound,
        Install(14, full, Described),
        Absorb(14, mid, Described),
        FlushRound,
    ]);
}

proptest! {
    #[test]
    fn random_ops_match_the_model(
        raw in collection::vec((0u8..12, 0u64..8, 0u8..4, 0u8..4, any::<u16>()), 1..200),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(code, b, s, p, at)| {
                let span = span_of(s);
                let p = [Payload::Pattern, Payload::Flipped(at), Payload::Zeros, Payload::Described]
                    [p as usize];
                match code {
                    0..=3 => Op::Install(b, span, p),
                    4..=7 => Op::Absorb(b, span, p),
                    8 | 9 => Op::Update(b, span, p),
                    10 => Op::FlushRound,
                    _ => Op::Invalidate(b),
                }
            })
            .collect();
        run(&ops);
    }
}
