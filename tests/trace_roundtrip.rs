//! End-to-end check of the trace layer's central guarantee: the JSONL
//! event stream written by `--trace` is parseable, and replaying it
//! through [`ReplayStats`] reproduces the machine's own [`SimStats`]
//! exactly, field for field. This is the same code path `scd-cli run
//! --trace out.jsonl` uses.

use scd_guest::{RunRequest, Scheme, Vm};
use scd_sim::{diff_stats, downcast_sink, JsonlSink, ReplayStats, TraceEvent, VecSink};

const SRC: &str = "var s = 0; \
                   for i = 1, 120 { if s % 3 == 0 { s = s + i * 2; } else { s = s - i; } } \
                   emit(s);";

fn trace_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("scd-trace-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn jsonl_trace_replays_to_exact_stats() {
    for (vm, scheme) in [(Vm::Lvm, Scheme::Scd), (Vm::Svm, Scheme::Scd), (Vm::Lvm, Scheme::Baseline)]
    {
        let path = trace_file(&format!("{}-{}", vm.name(), scheme.name()));
        let run = RunRequest::new(scd_sim::SimConfig::embedded_a5(), vm, SRC)
            .scheme(scheme)
            .run_with(|m| {
                m.set_trace_sink(Box::new(JsonlSink::create(&path).expect("temp file")));
            })
            .expect("program runs");

        let text = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        let mut replay = ReplayStats::default();
        for (i, line) in text.lines().enumerate() {
            let ev = TraceEvent::from_json(line)
                .unwrap_or_else(|e| panic!("line {}: {e}\n{line}", i + 1));
            replay.observe(&ev);
        }
        assert_eq!(replay.events(), run.stats.instructions, "one event per retirement");
        let replayed = replay.stats();
        if let Some(d) = diff_stats(&run.stats, &replayed) {
            panic!("replayed stats diverge [{} / {}]: {d}", vm.name(), scheme.name());
        }
        assert_eq!(replayed, run.stats);
    }
}

#[test]
fn vec_sink_matches_jsonl_sink() {
    // The in-memory sink sees the identical event stream the JSONL file
    // encodes (sanity for tests that skip the filesystem). The machine
    // owns the sink for the duration of the run and hands it back
    // afterwards — no sharing.
    let mut session = RunRequest::new(scd_sim::SimConfig::embedded_a5(), Vm::Lvm, SRC)
        .scheme(Scheme::Scd)
        .session()
        .expect("program compiles");
    session.machine.set_trace_sink(Box::new(VecSink::default()));
    session.run_and_validate().expect("program runs");
    let events = session
        .machine
        .take_trace_sink()
        .and_then(downcast_sink::<VecSink>)
        .expect("sink comes back from the machine")
        .events;
    assert!(!events.is_empty());
    for ev in &events {
        let back = TraceEvent::from_json(&ev.to_json()).expect("roundtrip");
        assert_eq!(&back, ev);
    }
}
