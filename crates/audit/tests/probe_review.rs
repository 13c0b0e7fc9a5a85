use noiselab_audit::SourceSpec;
use noiselab_audit::{analyze_sources, RuleId};

fn spec(path: &str, src: &str) -> SourceSpec<'static> {
    SourceSpec {
        path: path.to_string(),
        src: src.to_string(),
        rules: &RuleId::ALL,
    }
}

#[test]
fn method_arg_reaching_sink_in_callee_is_found() {
    // Callee is a method: self is param 0, v is param 1.
    let report = analyze_sources(&[
        spec(
            "a.rs",
            "impl Recorder { fn record(&self, v: u64) -> u64 { fnv1a(&v.to_le_bytes()) } }\n",
        ),
        spec(
            "b.rs",
            "fn leak(r: &Recorder) -> u64 { let t = std::time::Instant::now(); r.record(t.elapsed().as_nanos() as u64) }\n",
        ),
    ]);
    let taint: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::TaintWallClock)
        .collect();
    assert_eq!(
        taint.len(),
        1,
        "method arg flow missed: {:#?}",
        report.violations
    );
}

#[test]
fn receiver_reaching_sink_in_method_is_found() {
    // Tainted receiver; sink uses self inside the method.
    let report = analyze_sources(&[
        spec(
            "a.rs",
            "impl Acc { fn digest(&self) -> u64 { fnv1a(&self.x.to_le_bytes()) } }\n",
        ),
        spec(
            "b.rs",
            "fn leak() -> u64 { let mut a = Acc::new(); a.x = std::time::Instant::now().elapsed().as_nanos() as u64; a.digest() }\n",
        ),
    ]);
    let taint: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == RuleId::TaintWallClock)
        .collect();
    assert_eq!(
        taint.len(),
        1,
        "receiver flow missed: {:#?}",
        report.violations
    );
}
