//! The strongest correctness property in the repository: *randomly
//! generated programs* run on the simulated guest interpreter (SCD
//! build) must agree bit-for-bit with the host oracle — every run
//! validates checksum and dispatch count.
//!
//! Case counts are kept modest because each case assembles an
//! interpreter and simulates tens of thousands of instructions.

use proptest::prelude::*;
use scd_guest::{RunRequest, Scheme, Vm};
use scd_sim::SimConfig;

/// Runs `src` under `scheme` and fails the case on any oracle mismatch.
fn check(cfg: SimConfig, vm: Vm, src: &str, scheme: Scheme) -> Result<(), TestCaseError> {
    RunRequest::new(cfg, vm, src)
        .scheme(scheme)
        .max_insts(200_000_000)
        .run()
        .map(drop)
        .map_err(|e| TestCaseError::fail(format!("{e}\nsource:\n{src}")))
}

/// A small random program: a handful of globals, a loop, an array pass,
/// and a function call, parameterized by random constants.
fn arb_program() -> impl Strategy<Value = String> {
    (
        1i32..20,   // loop bound
        -50i32..50, // seed a
        -50i32..50, // seed b
        1i32..8,    // array length
        prop::sample::select(vec!["+", "-", "*"]),
        prop::sample::select(vec!["<", "<=", ">", ">=", "==", "!="]),
    )
        .prop_map(|(n, a, b, len, op, cmp)| {
            format!(
                "
                fn mix(x, y) {{
                    if x {cmp} y {{ return x {op} y; }}
                    return y {op} x {op} 1;
                }}
                var acc = {a};
                var arr = array({len});
                for i = 0, {len} - 1 {{ arr[i] = mix(i, {b}); }}
                for i = 1, {n} {{
                    acc = acc + mix(acc % 97, arr[i % {len}]);
                    if acc > 100000 {{ acc = acc / 1000; }}
                    if acc < -100000 {{ acc = 0 - acc / 1000; }}
                }}
                var s = 0;
                for i = 0, {len} - 1 {{ s = s + arr[i]; }}
                emit(acc);
                emit(s);
                "
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_programs_agree_with_oracle_on_lvm_scd(src in arb_program()) {
        check(SimConfig::embedded_a5(), Vm::Lvm, &src, Scheme::Scd)?;
    }

    #[test]
    fn random_programs_agree_with_oracle_on_svm_scd(src in arb_program()) {
        check(SimConfig::embedded_a5(), Vm::Svm, &src, Scheme::Scd)?;
    }

    #[test]
    fn random_programs_agree_on_threaded_build(src in arb_program()) {
        check(SimConfig::fpga_rocket(), Vm::Lvm, &src, Scheme::Threaded)?;
    }
}

// ---------------------------------------------------------------------------
// Robustness: hostile inputs must produce typed errors, never panics.
// ---------------------------------------------------------------------------

use luma::svm::{FuncInfo, SvmInterp, SvmProgram};

/// Constants a hostile bytecode image could carry: bounded numbers (so a
/// decoded `array(n)` length stays allocatable), booleans, nil, and
/// forged array references pointing at handles that were never created.
fn arb_soup_const() -> impl Strategy<Value = u64> {
    prop_oneof![
        (-100_000i32..100_000).prop_map(|i| luma::value::num(i as f64 / 100.0)),
        any::<bool>().prop_map(luma::value::boolean),
        Just(luma::value::NIL),
        (0u64..64).prop_map(luma::value::array_ref),
    ]
}

/// An arbitrary SVM image: random code bytes with a curated constant
/// pool, as an attacker holding the loader (but not the host) would
/// deliver it.
fn arb_svm_soup() -> impl Strategy<Value = (SvmProgram, Vec<u64>)> {
    (
        prop::collection::vec(any::<u8>(), 0..256),
        prop::collection::vec(arb_soup_const(), 0..8),
        prop::collection::vec(arb_soup_const(), 0..4),
        0u32..8,
    )
        .prop_map(|(code, consts, ginit, nlocals)| {
            let p = SvmProgram {
                code,
                consts,
                funcs: vec![FuncInfo { code_off: 0, nparams: 0, nlocals }],
                nglobals: ginit.len() as u32,
                global_names: Vec::new(),
            };
            (p, ginit)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn isa_decode_never_panics(w in any::<u32>()) {
        if let Ok(inst) = scd_isa::decode(w) {
            // Anything that decodes must survive a codec round trip.
            let re = scd_isa::encode(inst)
                .map_err(|e| TestCaseError::fail(format!("{inst:?} failed to re-encode: {e}")))?;
            prop_assert_eq!(scd_isa::decode(re).expect("re-encoded word decodes"), inst);
        }
    }

    #[test]
    fn svm_loader_never_panics_on_byte_soup(soup in arb_svm_soup()) {
        // Byte soup may trap (typed RuntimeError) or halt cleanly; either
        // way the host interpreter must not panic or abort.
        let (p, ginit) = soup;
        let _ = SvmInterp::new(&p, &ginit).run(512);
    }
}
