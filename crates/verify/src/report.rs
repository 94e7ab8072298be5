//! Rendering of matrix runs: machine-readable `VERIFY.json` and the
//! human-readable console summary.
//!
//! The JSON is hand-rolled (the workspace has no serialisation
//! dependency), matching the idiom of the figure and bench reports.
//! Strings that can carry arbitrary error text are escaped.

use crate::epochs::{EpochReport, ScheduleOutcome};
use crate::matrix::{CaseResult, MatrixReport, Verdict};

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_string_array(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let body = items
        .iter()
        .map(|s| format!("{indent}  \"{}\"", json_escape(s)))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n{indent}]")
}

/// Serialises one epoch of a schedule case as a compact JSON object.
fn epoch_json(e: &EpochReport, indent: &str) -> String {
    format!(
        "{indent}{{\"cycle\": {}, \"new_faults\": {}, \"faulty_nodes\": {}, \
         \"faulty_links\": {}, \"pairs\": {}, \"routable\": {}, \"rerouted\": {}, \
         \"disconnected\": {}, \"endpoint_faulty\": {}, \"rewalked\": {}, \
         \"reused\": {}, \"cdg_edges\": {}, \"acyclic\": {}, \"states\": {}, \
         \"wall_ms\": {}, \"witness\": {}}}",
        e.cycle,
        json_string_array(&e.new_faults, indent),
        e.faulty_nodes,
        e.faulty_links,
        e.pairs,
        e.routable,
        e.rerouted,
        e.disconnected,
        e.endpoint_faulty,
        e.rewalked,
        e.reused,
        e.cdg_edges,
        e.acyclic,
        e.states,
        e.wall_ms,
        json_string_array(&e.witness, indent),
    )
}

fn epochs_json(epochs: &[EpochReport], indent: &str) -> String {
    if epochs.is_empty() {
        return "[]".to_string();
    }
    let body = epochs
        .iter()
        .map(|e| epoch_json(e, &format!("{indent}  ")))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n{indent}]")
}

/// Serialises a matrix report to the `VERIFY.json` schema (v3: per-case
/// `epochs` array with pair-fate counts and re-walked/reused tallies for
/// fault-schedule cases).
pub fn to_json(report: &MatrixReport) -> String {
    let (proved, rejected, failed) = report.tallies();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"swbft-verify-v3\",\n");
    out.push_str(&format!("  \"matrix\": \"{}\",\n", report.kind.name()));
    out.push_str(&format!("  \"jobs\": {},\n", report.jobs));
    out.push_str(&format!("  \"wall_clock_ms\": {},\n", report.wall_clock_ms));
    out.push_str(&format!("  \"cases\": {},\n", report.cases.len()));
    out.push_str(&format!("  \"proved\": {proved},\n"));
    out.push_str(&format!("  \"rejected\": {rejected},\n"));
    out.push_str(&format!("  \"failed\": {failed},\n"));
    out.push_str("  \"results\": [\n");
    for (i, c) in report.cases.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"topology\": \"{}\",\n",
            json_escape(&c.topology)
        ));
        out.push_str(&format!(
            "      \"routing\": \"{}\",\n",
            json_escape(&c.routing)
        ));
        out.push_str(&format!(
            "      \"virtual_channels\": {},\n",
            c.virtual_channels
        ));
        out.push_str(&format!(
            "      \"faults\": \"{}\",\n",
            json_escape(&c.faults)
        ));
        out.push_str(&format!("      \"verdict\": \"{}\",\n", c.verdict.name()));
        out.push_str(&format!("      \"cdg_vertices\": {},\n", c.cdg_vertices));
        out.push_str(&format!("      \"cdg_edges\": {},\n", c.cdg_edges));
        out.push_str(&format!("      \"pairs\": {},\n", c.pairs));
        out.push_str(&format!("      \"delivered\": {},\n", c.delivered));
        out.push_str(&format!("      \"states\": {},\n", c.states));
        out.push_str(&format!(
            "      \"detail\": \"{}\",\n",
            json_escape(&c.detail)
        ));
        out.push_str(&format!(
            "      \"witness\": {},\n",
            json_string_array(&c.witness, "      ")
        ));
        out.push_str(&format!(
            "      \"epochs\": {}\n",
            epochs_json(&c.epochs, "      ")
        ));
        out.push_str(if i + 1 == report.cases.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One console line per case, e.g.
/// `torus:4x2  deterministic    v=2 nf=0      proved  (112 pairs, 64 edges)`.
pub fn case_line(c: &CaseResult) -> String {
    let mark = match c.verdict {
        Verdict::Proved => "proved  ",
        Verdict::Rejected => "rejected",
        Verdict::Failed => "FAILED  ",
    };
    let stats = match c.verdict {
        Verdict::Rejected => String::new(),
        _ => format!(
            " ({} pairs, {} edges, {} states)",
            c.pairs, c.cdg_edges, c.states
        ),
    };
    format!(
        "{:<12} {:<16} v={} {:<12} {mark}{stats}",
        c.topology, c.routing, c.virtual_channels, c.faults
    )
}

/// One console line per epoch of a schedule case, e.g.
/// `epoch@100 [node@8] 110 pairs: 98 routable / 8 rerouted / 4 disconnected
/// (12 re-walked, 98 reused), acyclic`.
pub fn epoch_line(e: &EpochReport) -> String {
    format!(
        "epoch@{} [{}] {} pairs: {} routable / {} rerouted / {} disconnected \
         ({} re-walked, {} reused), {}",
        e.cycle,
        e.new_faults.join("+"),
        e.pairs,
        e.routable,
        e.rerouted,
        e.disconnected,
        e.rewalked,
        e.reused,
        if e.acyclic { "acyclic" } else { "CYCLIC" },
    )
}

/// Renders a standalone schedule verification (the `verify --schedule`
/// path): one line per epoch, witnesses, and the verdict.
pub fn render_schedule_text(outcome: &ScheduleOutcome) -> String {
    let mut out = String::new();
    for e in &outcome.epochs {
        out.push_str(&format!("  {}\n", epoch_line(e)));
        if let Some(failure) = &e.failure {
            out.push_str(&format!("    violation: {failure}\n"));
        }
        for line in &e.witness {
            out.push_str(&format!("    {line}\n"));
        }
    }
    for d in &outcome.divergences {
        out.push_str(&format!("  divergence: {d}\n"));
    }
    out.push_str(&format!(
        "schedule: {}\n",
        if outcome.failed() { "FAILED" } else { "proved" }
    ));
    out
}

/// Renders the full console report, including witnesses of every failed
/// case and the final tally line.
pub fn render_text(report: &MatrixReport) -> String {
    let mut out = String::new();
    for c in &report.cases {
        out.push_str(&case_line(c));
        out.push('\n');
        if c.verdict == Verdict::Failed {
            out.push_str(&format!("  violation: {}\n", c.detail));
            for line in &c.witness {
                out.push_str(&format!("  {line}\n"));
            }
            for e in &c.epochs {
                out.push_str(&format!("  {}\n", epoch_line(e)));
            }
        }
    }
    let (proved, rejected, failed) = report.tallies();
    out.push_str(&format!(
        "matrix {}: {} cases — {proved} proved, {rejected} rejected, {failed} failed \
         ({} ms on {} thread{})\n",
        report.kind.name(),
        report.cases.len(),
        report.wall_clock_ms,
        report.jobs,
        if report.jobs == 1 { "" } else { "s" }
    ));
    out
}
