//! The write path: absorb a write into the cache block by block
//! (write-behind), or update resident copies in place and pass it through
//! (a sync-write, or the write-through ablation).

use super::{Arrived, CacheModule};
use crate::block::{pieces_of_range, BlockKey};
use crate::manager::{Access, AccessKind, AccessOutcome, WriteOutcome};
use pvfs::{ByteRange, WriteAck, WritePart, WriteReq};
use sim_core::Ctx;
use sim_net::MessageMeta;

/// The bytes of `part` that `run` covers.
fn slice_part(part: &WritePart, run: ByteRange) -> WritePart {
    let lo = (run.offset - part.range.offset) as usize;
    WritePart { range: run, data: part.data.slice(lo, lo + run.len as usize) }
}

impl CacheModule {
    pub(super) fn intercept_write(&mut self, ctx: &mut Ctx<'_>, meta: MessageMeta, wr: WriteReq) {
        self.stats.writes_intercepted += 1;
        let now = ctx.now();
        let client_port = wr.reply_to.1;
        let app = self.app_of(client_port);
        let total_bytes = wr.total_bytes();
        // Write-through ablation, or coherent sync-write: update any
        // resident blocks in place, then forward the full request.
        // Otherwise absorb block by block; contiguous failures re-form
        // pass-through parts.
        let (through, home) = (!self.cfg.write_behind || wr.sync, meta.dst);
        if wr.sync {
            self.stats.sync_writes += 1;
        }
        let mut blocks = 0u64;
        let mut passthrough: Vec<WritePart> = Vec::new();
        let mut absorbed_blocks = 0u64;
        let mut absorbed_bytes = 0u64;
        for part in &wr.parts {
            let mut failed: Option<ByteRange> = None;
            for p in pieces_of_range(part.range.offset, part.range.len) {
                blocks += 1;
                let key = BlockKey::new(wr.fid, p.blk);
                let arrived = Arrived::of(&part.data, key, p);
                if through {
                    match arrived {
                        Arrived::Own => self.cache.update_if_present_described(key, p.span),
                        Arrived::Bytes(b) => self.cache.update_if_present(key, p.span, &b),
                    };
                    continue;
                }
                let kind = match &arrived {
                    Arrived::Own => AccessKind::WriteDescribed { home, span: p.span },
                    Arrived::Bytes(b) => AccessKind::Write { home, span: p.span, bytes: b },
                };
                if let AccessOutcome::Write(WriteOutcome::Absorbed) =
                    self.cache.access(key, Access { app, kind })
                {
                    absorbed_blocks += 1;
                    absorbed_bytes += p.span.len() as u64;
                    self.maybe_schedule_harvest(ctx);
                    continue;
                }
                // Not absorbed: these bytes go through to the iod.
                let at = part.range.offset + p.at as u64;
                match &mut failed {
                    Some(run) if run.end() == at => run.len += p.span.len(),
                    _ => {
                        passthrough.extend(failed.map(|r| slice_part(part, r)));
                        failed = Some(ByteRange::new(at, p.span.len()));
                    }
                }
            }
            passthrough.extend(failed.map(|r| slice_part(part, r)));
        }
        let mut t = self.charge(
            now,
            self.costs.cache_call_overhead + self.costs.cache_lookup_per_block * blocks,
        );
        if through {
            self.stats.bytes_passthrough += total_bytes;
            return self.forward(ctx, t, meta, meta.wire_bytes, wr);
        }
        if absorbed_blocks > 0 {
            t = self.charge(t, self.costs.cache_copy_per_block * absorbed_blocks);
        }
        self.stats.bytes_absorbed += absorbed_bytes;
        if passthrough.is_empty() {
            // Fully absorbed: fake the write ack (write-behind).
            self.stats.fake_write_acks += 1;
            let ack = WriteAck { req_id: wr.req_id, bytes: total_bytes };
            self.send_to_client(ctx, t, client_port, ack);
        } else {
            let pass_bytes: u64 = passthrough.iter().map(|p| p.range.len as u64).sum();
            self.stats.bytes_passthrough += pass_bytes;
            let reduced = WriteReq {
                req_id: wr.req_id,
                fid: wr.fid,
                parts: passthrough,
                reply_to: wr.reply_to,
                caching: true,
                sync: false,
            };
            t = self.charge(t, self.costs.cache_call_overhead);
            self.forward(ctx, t, meta, reduced.wire_bytes(), reduced);
        }
    }
}
