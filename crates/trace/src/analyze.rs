//! Analyses over a reconstructed [`Trace`]: rendered span trees,
//! pass and cache breakdowns, and folded stacks for flamegraphs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::model::Trace;

/// Render the span tree rooted at `id` as an indented text block:
/// one line per span with name, id, duration and attributed totals.
pub fn render_tree(t: &Trace, id: u64) -> String {
    let mut out = String::new();
    render_into(t, id, 0, &mut out);
    out
}

fn render_into(t: &Trace, id: u64, depth: usize, out: &mut String) {
    let Some(s) = t.spans.get(&id) else { return };
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(out, "{} #{}", s.name, s.id);
    match s.nanos {
        Some(n) => {
            let _ = write!(out, " {:.3}ms", n as f64 / 1e6);
        }
        None => out.push_str(" (unclosed)"),
    }
    if let Some(cov) = t.coverage(id) {
        if !s.children.is_empty() {
            let _ = write!(out, " cover {cov:.1}%");
        }
    }
    if s.cache_hits + s.cache_misses > 0 {
        let _ = write!(out, " cache {}h/{}m", s.cache_hits, s.cache_misses);
        if s.cache_warm_hits > 0 {
            let _ = write!(out, " ({} warm)", s.cache_warm_hits);
        }
    }
    if s.cache_evictions > 0 {
        let _ = write!(out, " {}ev", s.cache_evictions);
    }
    if let Some(outcome) = &s.outcome {
        let _ = write!(out, " [{outcome}]");
    }
    if let Some(status) = s.status {
        let _ = write!(out, " status {status}");
    }
    if !s.passes.is_empty() {
        let total: u64 = s.passes.iter().map(|(_, n)| n).sum();
        let _ = write!(out, " passes {:.3}ms", total as f64 / 1e6);
    }
    out.push('\n');
    for c in &s.children {
        render_into(t, *c, depth + 1, out);
    }
}

/// Per-pass `(calls, total nanos)` over every span-attributed
/// `pass_end` in the trace, sorted by descending total — where
/// scheduling time actually went.
pub fn pass_breakdown(t: &Trace) -> Vec<(String, u64, u64)> {
    pass_table(t, t.spans.keys().copied())
}

/// Per-pass `(calls, total nanos)` along the critical path of one tree
/// only: the passes that bounded this request's latency, not the ones
/// that ran beside it.
pub fn critical_path_passes(t: &Trace, root: u64) -> Vec<(String, u64, u64)> {
    pass_table(t, t.critical_path(root))
}

/// The `pass_end`s of the spans `ids`, folded per pass into `(pass,
/// calls, total nanos)` rows sorted by descending total, then by name.
fn pass_table(t: &Trace, ids: impl IntoIterator<Item = u64>) -> Vec<(String, u64, u64)> {
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in ids.into_iter().filter_map(|id| t.spans.get(&id)) {
        for (pass, nanos) in &s.passes {
            let e = totals.entry(pass.as_str()).or_default();
            e.0 += 1;
            e.1 += nanos;
        }
    }
    let mut rows: Vec<(String, u64, u64)> = totals
        .into_iter()
        .map(|(pass, (calls, nanos))| (pass.to_string(), calls, nanos))
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// One span-name row of [`cache_attribution`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheRow {
    /// Span name the traffic was attributed to.
    pub name: String,
    /// Attributed hits.
    pub hits: u64,
    /// Hits served by warm-started (file-loaded) entries — a subset of
    /// `hits`, nonzero only when the cache was warm-started.
    pub warm_hits: u64,
    /// Attributed misses.
    pub misses: u64,
    /// Attributed evictions.
    pub evictions: u64,
}

/// Cache traffic grouped by span name, descending by queries. Shows
/// *which layer* of the tree the schedule cache serves (tasks, in
/// practice) and how much of it was warm-start traffic.
pub fn cache_attribution(t: &Trace) -> Vec<CacheRow> {
    let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in t.spans.values() {
        if s.cache_hits + s.cache_misses + s.cache_evictions > 0 {
            let e = by_name.entry(s.name.as_str()).or_default();
            e.0 += s.cache_hits;
            e.1 += s.cache_warm_hits;
            e.2 += s.cache_misses;
            e.3 += s.cache_evictions;
        }
    }
    let mut rows: Vec<CacheRow> = by_name
        .into_iter()
        .map(|(name, (hits, warm_hits, misses, evictions))| CacheRow {
            name: name.to_string(),
            hits,
            warm_hits,
            misses,
            evictions,
        })
        .collect();
    rows.sort_by(|a, b| {
        (b.hits + b.misses)
            .cmp(&(a.hits + a.misses))
            .then_with(|| a.name.cmp(&b.name))
    });
    rows
}

/// Folded-stack lines (`root;child;leaf <self-nanos>`) for flamegraph
/// tooling. Each span contributes its *self* time — duration minus the
/// sum of its children's durations, clamped at zero — so stack totals
/// add up to the roots' wall clock. Identical stacks are merged;
/// output is sorted by stack name for determinism.
pub fn folded_stacks(t: &Trace) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for root in &t.roots {
        let mut path = String::new();
        fold_into(t, *root, &mut path, &mut folded);
    }
    let mut out = String::new();
    for (stack, nanos) in folded {
        let _ = writeln!(out, "{stack} {nanos}");
    }
    out
}

fn fold_into(t: &Trace, id: u64, path: &mut String, folded: &mut BTreeMap<String, u64>) {
    let Some(s) = t.spans.get(&id) else { return };
    let parent_len = path.len();
    if !path.is_empty() {
        path.push(';');
    }
    path.push_str(&s.name);
    let children: u64 = s
        .children
        .iter()
        .filter_map(|c| t.spans.get(c).and_then(|c| c.nanos))
        .sum();
    let own = s.nanos.unwrap_or(0).saturating_sub(children);
    *folded.entry(path.clone()).or_default() += own;
    for c in &s.children {
        fold_into(t, *c, path, folded);
    }
    path.truncate(parent_len);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::parse(
            r#"{"ev":"span_start","span":1,"parent":null,"name":"request"}
{"ev":"span_start","span":2,"parent":1,"name":"handle"}
{"ev":"span_start","span":3,"parent":2,"name":"engine"}
{"ev":"pass_end","pass":"rank","nanos":3000,"span":3}
{"ev":"cache_query","key":1,"hit":false,"span":3}
{"ev":"span_end","span":3,"nanos":6000}
{"ev":"span_end","span":2,"nanos":8000}
{"ev":"req_done","status":200,"nanos":10000,"span":1}
{"ev":"span_end","span":1,"nanos":10000}
"#,
        )
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let t = sample();
        let folded = folded_stacks(&t);
        assert_eq!(
            folded,
            "request 2000\nrequest;handle 2000\nrequest;handle;engine 6000\n"
        );
        // Self times sum back to the root's wall clock.
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 10000);
    }

    #[test]
    fn breakdowns_and_tree_rendering() {
        let t = sample();
        assert_eq!(pass_breakdown(&t), vec![("rank".to_string(), 1, 3000)]);
        assert_eq!(
            critical_path_passes(&t, 1),
            vec![("rank".to_string(), 1, 3000)]
        );
        assert_eq!(
            cache_attribution(&t),
            vec![CacheRow {
                name: "engine".to_string(),
                hits: 0,
                warm_hits: 0,
                misses: 1,
                evictions: 0,
            }]
        );
        let tree = render_tree(&t, 1);
        assert!(tree.contains("request #1 0.010ms"), "{tree}");
        assert!(tree.contains("  handle #2"), "{tree}");
        assert!(tree.contains("    engine #3"), "{tree}");
        assert!(tree.contains("cache 0h/1m"), "{tree}");
        assert!(tree.contains("status 200"), "{tree}");
    }

    #[test]
    fn warm_hits_are_attributed_and_rendered() {
        let t = Trace::parse(
            r#"{"ev":"span_start","span":1,"parent":null,"name":"engine"}
{"ev":"cache_query","key":1,"hit":true,"warm":true,"span":1}
{"ev":"cache_query","key":2,"hit":true,"span":1}
{"ev":"cache_query","key":3,"hit":false,"span":1}
{"ev":"span_end","span":1,"nanos":5000}
"#,
        );
        assert_eq!(
            cache_attribution(&t),
            vec![CacheRow {
                name: "engine".to_string(),
                hits: 2,
                warm_hits: 1,
                misses: 1,
                evictions: 0,
            }]
        );
        let tree = render_tree(&t, 1);
        assert!(tree.contains("cache 2h/1m (1 warm)"), "{tree}");
    }
}
