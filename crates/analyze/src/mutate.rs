//! Plan corruption harness.
//!
//! Each [`Mutation`] injects one class of structural damage into a
//! [`PlanIr`], chosen so that exactly one lint family is responsible for
//! catching it. The CLI's `h2p lint --corrupt` flag and the mutation
//! tests both drive [`apply`], so "the linter catches every corruption
//! class" is checked end to end, not just in-crate.

use crate::ir::PlanIr;

/// A corruption class for the mutation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Remove a layer from coverage: shrink the last multi-layer stage,
    /// or (if every stage is single-layer) grow the model by one layer.
    /// Caught by `H2P001` (layer coverage).
    DropLayer,
    /// Map two pipeline slots onto the same processor. Caught by
    /// `H2P002` (slot conflict).
    DuplicateSlot,
    /// Re-pin one stage onto a processor other than its slot's. Caught
    /// by `H2P003` (processor feasibility).
    BadProc,
    /// Inflate the claimed makespan far beyond the static upper bound.
    /// Caught by `H2P007` (bound analysis).
    InflateMakespan,
}

impl Mutation {
    /// All corruption classes, in code order.
    pub const ALL: [Mutation; 4] = [
        Mutation::DropLayer,
        Mutation::DuplicateSlot,
        Mutation::BadProc,
        Mutation::InflateMakespan,
    ];

    /// Stable CLI name of the class.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DropLayer => "drop-layer",
            Mutation::DuplicateSlot => "duplicate-slot",
            Mutation::BadProc => "bad-proc",
            Mutation::InflateMakespan => "inflate-makespan",
        }
    }

    /// Parses a CLI name back into a class.
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.name() == s)
    }
}

/// Applies `mutation` in place. Returns `false` if the plan has no
/// structure to corrupt (e.g. no requests at all), in which case the IR
/// is left untouched.
pub fn apply(ir: &mut PlanIr, mutation: Mutation) -> bool {
    match mutation {
        Mutation::DropLayer => drop_layer(ir),
        Mutation::DuplicateSlot => duplicate_slot(ir),
        Mutation::BadProc => bad_proc(ir),
        Mutation::InflateMakespan => inflate_makespan(ir),
    }
}

fn drop_layer(ir: &mut PlanIr) -> bool {
    // Prefer shrinking a multi-layer final stage so the damage is a
    // genuine gap, not a range error.
    for req in &mut ir.requests {
        if let Some(stage) = req
            .stages
            .iter_mut()
            .rev()
            .flatten()
            .find(|s| s.range.last > s.range.first)
        {
            stage.range.last -= 1;
            stage.runs.clear();
            return true;
        }
    }
    // Every stage is single-layer: grow a model instead, leaving the new
    // final layer uncovered.
    if let Some(req) = ir.requests.first_mut() {
        req.layer_count += 1;
        req.npu_supported.push(true);
        return true;
    }
    false
}

fn duplicate_slot(ir: &mut PlanIr) -> bool {
    if ir.procs.len() >= 2 {
        ir.procs[1] = ir.procs[0];
        // Drag the stages along so the slot conflict is the only damage.
        for req in &mut ir.requests {
            if let Some(Some(stage)) = req.stages.get_mut(1) {
                stage.proc = ir.procs[0];
            }
        }
        true
    } else if let Some(&p) = ir.procs.first() {
        ir.procs.push(p);
        for req in &mut ir.requests {
            req.stages.push(None);
        }
        true
    } else {
        false
    }
}

fn bad_proc(ir: &mut PlanIr) -> bool {
    let slots = ir.procs.clone();
    for req in &mut ir.requests {
        for stage in req.stages.iter_mut().flatten() {
            if let Some(&other) = slots.iter().find(|p| **p != stage.proc) {
                stage.proc = other;
                return true;
            }
        }
    }
    false
}

fn inflate_makespan(ir: &mut PlanIr) -> bool {
    if ir.requests.is_empty() {
        return false;
    }
    ir.claimed_makespan_ms = ir.claimed_makespan_ms * 1000.0 + 1000.0;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.name()), Some(m));
        }
        assert_eq!(Mutation::parse("no-such-class"), None);
    }

    #[test]
    fn mutations_on_an_empty_plan_are_noops() {
        let mut ir = PlanIr {
            procs: Vec::new(),
            requests: Vec::new(),
            claimed_makespan_ms: 0.0,
            claimed_bubble_ms: 0.0,
            staging_gbps: 2.0,
        };
        for m in Mutation::ALL {
            assert!(
                !apply(&mut ir, m),
                "{} should report nothing to corrupt",
                m.name()
            );
        }
    }
}
