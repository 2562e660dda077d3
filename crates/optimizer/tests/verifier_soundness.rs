//! Lowering soundness: every plan the optimizer emits must pass the IR
//! verifier without a single diagnostic. The verifier exists to catch
//! hand-built or corrupted plans — if it ever fires on our own lowering
//! output, either the lowering or the verifier has a bug, and this test
//! pins down which commit introduced it.

use proptest::prelude::*;
use spear_core::analysis::Verifier;
use spear_core::plan::lower;
use spear_optimizer::fusion::{self, Stage};

proptest! {
    #[test]
    fn lowered_physical_plans_always_verify_clean(
        a in "[a-zA-Z ]{1,40}",
        b in "[a-zA-Z ]{1,40}",
        filter_first in any::<bool>(),
        identity in proptest::option::of("[a-z_]{1,12}"),
        fused in any::<bool>(),
    ) {
        let stages = if filter_first {
            [Stage::Filter(a), Stage::Map(b)]
        } else {
            [Stage::Map(a), Stage::Filter(b)]
        };
        let pipeline = fusion::pipeline(&stages, fused, identity.as_deref());
        let lowered = lower(&pipeline).expect("optimizer lowering must not leak placeholders");
        let diagnostics = Verifier::new().verify(&lowered);
        prop_assert!(
            diagnostics.is_empty(),
            "optimizer-lowered plan {:?} tripped the verifier: {:?}",
            lowered.name(),
            diagnostics
        );
    }
}
