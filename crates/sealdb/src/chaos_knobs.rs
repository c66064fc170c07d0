//! Deliberately-broken store entry points for the chaos harness.
//!
//! The chaos shrinker demo (ISSUE 10) needs a way to *re-introduce* the
//! PR 8 retire-before-sync bug on demand: free a value-log victim band
//! before the pointer fixups that reference its relocated records are
//! durable. The correct path ([`Store::vlog_gc_step`]) owns that
//! barrier; this module exposes a twin that skips it, so a chaos
//! schedule can select the buggy entry point and the debug-build
//! [`smr_sim::OrderingAuditor`] catches the violation ("were not yet
//! durable"). Nothing in the production crates calls into this module —
//! it exists only for fault-injection tests and the chaos harness, and
//! the one seal-lint `recycle-after-fixups-durable` finding it produces
//! carries an inline waiver for exactly this reason.

use crate::store::Store;
use lsm_core::Result;

impl Store {
    /// One cooperative-GC step with the durability barrier **removed**:
    /// identical to [`Store::vlog_gc_step`] except that when the victim
    /// scan finishes, the victim segment is retired *without* syncing
    /// the WAL first. If the step wrote pointer fixups, they are still
    /// volatile when the band returns to the allocator — a crash in
    /// that window replays pointers into a recycled band.
    ///
    /// In debug builds the ordering auditor panics at the recycle
    /// record whenever fixups are pending, which is the signal the
    /// chaos oracle and the schedule shrinker key on. Release builds
    /// silently carry the latent bug, exactly like the original PR 8
    /// regression.
    pub fn vlog_gc_step_retire_before_sync(&mut self, budget_bytes: u64) -> Result<bool> {
        let Some(relocation) = self.vlog_gc_relocate(budget_bytes)? else {
            return Ok(false);
        };
        if let Some(e) = relocation.error {
            return Err(e);
        }
        let (victim, finished) = (relocation.scan.segment, relocation.scan.finished);
        if finished {
            // BUG (intentional): no sync_wal() and no record_durable()
            // before the retire — the auditor sees the recycle while
            // this step's fixups are still pending.
            if let Some(a) = self.ord_audit.as_mut() {
                a.record_recycle(self.db.clock_ns(), victim);
            }
            let vlog = self.vlog.as_mut().expect("relocate checked vlog");
            self.db
                // seal-lint: allow(recycle-after-fixups-durable)
                .with_fs_and_policy(|fs, policy| vlog.retire_segment(fs, policy, victim))?;
            if vlog.take_dirty() {
                let blob = vlog.checkpoint();
                self.db.commit_aux_state(blob)?;
                if let Some(a) = self.ord_audit.as_mut() {
                    a.record_checkpoint_commit(self.db.clock_ns(), &vlog.segment_ids());
                }
            }
        }
        Ok(true)
    }
}
