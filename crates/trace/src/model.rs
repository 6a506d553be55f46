//! Span-tree reconstruction from a JSONL event trace.
//!
//! The obs layer emits a flat stream of events; `span_start` /
//! `span_end` lines plus the optional trailing `"span"` attribution on
//! ordinary events (see `docs/observability.md`) turn that stream into
//! a forest. [`Trace::parse`] rebuilds the forest: one [`Span`] per
//! `span_start`, children attached in start order, durations from
//! `span_end`, and attributed pass / cache / task / request events
//! folded onto the span they happened inside.
//!
//! Parsing is tolerant of unknown event tags (forward compatibility)
//! but strict about span structure, and is the workspace's one span
//! checker: an end without a start, a second start or end of a span, a
//! parent that had not started (a span naming itself included) or an
//! attribution to an unknown span is reported in [`Trace::orphans`],
//! and a span never ended in [`Trace::unclosed`] — the acceptance bar
//! for the serving tier is *zero* of either.

use std::collections::BTreeMap;

use asched_obs::json::Json;
use asched_obs::schema::{parse_flat_object, SchemaError};

/// One reconstructed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (unique per trace).
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (`request`, `queue`, `engine`, `task`, ...).
    pub name: String,
    /// Duration from `span_end`, `None` while unclosed.
    pub nanos: Option<u64>,
    /// Child span ids, in start order.
    pub children: Vec<u64>,
    /// Attributed `pass_end` events: `(pass, nanos)` in stream order.
    pub passes: Vec<(String, u64)>,
    /// Attributed cache queries that hit.
    pub cache_hits: u64,
    /// Attributed cache queries that missed.
    pub cache_misses: u64,
    /// Attributed hits served by warm-started (file-loaded) entries —
    /// a subset of `cache_hits`.
    pub cache_warm_hits: u64,
    /// Attributed cache evictions.
    pub cache_evictions: u64,
    /// Attributed `task_done` outcome, if any.
    pub outcome: Option<String>,
    /// Attributed `req_done` status, if any.
    pub status: Option<u64>,
}

/// A structural problem found while rebuilding the forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Orphan {
    /// `span_start` whose parent id never started.
    UnknownParent {
        /// The child span.
        span: u64,
        /// The id it claims as parent.
        parent: u64,
    },
    /// `span_end` for an id that never started.
    EndWithoutStart(u64),
    /// Second `span_start` for an id already started.
    DuplicateStart(u64),
    /// Second `span_end` for an id already ended.
    DoubleEnd(u64),
    /// An attributed event naming a span that never started.
    UnknownAttribution {
        /// Event tag (`pass_end`, `cache_query`, ...).
        ev: String,
        /// The span id it names.
        span: u64,
    },
}

/// The reconstructed forest plus bookkeeping for `--check`.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans by id.
    pub spans: BTreeMap<u64, Span>,
    /// Root span ids (no parent), in start order.
    pub roots: Vec<u64>,
    /// Structural problems, in stream order.
    pub orphans: Vec<Orphan>,
    /// Spans that started but never ended.
    pub unclosed: Vec<u64>,
    /// Total lines read.
    pub lines: usize,
    /// Lines that were not parseable flat JSON objects (first offender
    /// kept for the error message).
    pub bad_lines: Vec<(usize, SchemaError)>,
    /// `req_done` events seen, as `(span-or-0, status, nanos)`.
    pub req_done: Vec<(u64, u64, u64)>,
}

fn num(map: &BTreeMap<String, Json>, key: &str) -> Option<u64> {
    match map.get(key) {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn text<'m>(map: &'m BTreeMap<String, Json>, key: &str) -> Option<&'m str> {
    match map.get(key) {
        Some(Json::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

impl Trace {
    /// Rebuild the span forest from JSONL `text`.
    pub fn parse(text: &str) -> Trace {
        let mut t = Trace::default();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            t.lines += 1;
            let map = match parse_flat_object(line) {
                Ok(m) => m,
                Err(e) => {
                    t.bad_lines.push((i + 1, e));
                    continue;
                }
            };
            let Some(ev) = text_owned(&map) else { continue };
            t.absorb(&ev, &map);
        }
        t.unclosed = t
            .spans
            .values()
            .filter(|s| s.nanos.is_none())
            .map(|s| s.id)
            .collect();
        t
    }

    fn absorb(&mut self, ev: &str, map: &BTreeMap<String, Json>) {
        match ev {
            "span_start" => {
                let (Some(id), Some(name)) = (num(map, "span"), text(map, "name")) else {
                    return;
                };
                let parent = num(map, "parent");
                if self.spans.contains_key(&id) {
                    self.orphans.push(Orphan::DuplicateStart(id));
                    return;
                }
                match parent {
                    None => self.roots.push(id),
                    Some(p) => match self.spans.get_mut(&p) {
                        Some(parent_span) => parent_span.children.push(id),
                        None => self.orphans.push(Orphan::UnknownParent {
                            span: id,
                            parent: p,
                        }),
                    },
                }
                self.spans.insert(
                    id,
                    Span {
                        id,
                        parent,
                        name: name.to_string(),
                        nanos: None,
                        children: Vec::new(),
                        passes: Vec::new(),
                        cache_hits: 0,
                        cache_misses: 0,
                        cache_warm_hits: 0,
                        cache_evictions: 0,
                        outcome: None,
                        status: None,
                    },
                );
            }
            "span_end" => {
                let (Some(id), Some(nanos)) = (num(map, "span"), num(map, "nanos")) else {
                    return;
                };
                match self.spans.get_mut(&id) {
                    None => self.orphans.push(Orphan::EndWithoutStart(id)),
                    Some(s) if s.nanos.is_some() => self.orphans.push(Orphan::DoubleEnd(id)),
                    Some(s) => s.nanos = Some(nanos),
                }
            }
            "req_done" => {
                let status = num(map, "status").unwrap_or(0);
                let nanos = num(map, "nanos").unwrap_or(0);
                let span = num(map, "span").unwrap_or(0);
                self.req_done.push((span, status, nanos));
                if span != 0 {
                    match self.spans.get_mut(&span) {
                        Some(s) => s.status = Some(status),
                        None => self.orphans.push(Orphan::UnknownAttribution {
                            ev: ev.to_string(),
                            span,
                        }),
                    }
                }
            }
            _ => {
                // Any other event may carry a span attribution.
                let Some(span) = num(map, "span") else { return };
                let Some(s) = self.spans.get_mut(&span) else {
                    self.orphans.push(Orphan::UnknownAttribution {
                        ev: ev.to_string(),
                        span,
                    });
                    return;
                };
                match ev {
                    "pass_end" => {
                        if let (Some(pass), Some(nanos)) = (text(map, "pass"), num(map, "nanos")) {
                            s.passes.push((pass.to_string(), nanos));
                        }
                    }
                    "cache_query" => match map.get("hit") {
                        Some(Json::Bool(true)) => {
                            s.cache_hits += 1;
                            // "warm" is emitted only when true.
                            if matches!(map.get("warm"), Some(Json::Bool(true))) {
                                s.cache_warm_hits += 1;
                            }
                        }
                        Some(Json::Bool(false)) => s.cache_misses += 1,
                        _ => {}
                    },
                    "cache_evict" => s.cache_evictions += 1,
                    "task_done" => {
                        if let Some(outcome) = text(map, "outcome") {
                            s.outcome = Some(outcome.to_string());
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Sum of the direct children's durations over the root's own, as a
    /// percentage; `None` when the span is unclosed or instantaneous.
    /// This is the "span coverage" figure: how much of a request's
    /// latency its phase spans account for.
    pub fn coverage(&self, id: u64) -> Option<f64> {
        let s = self.spans.get(&id)?;
        let total = s.nanos?;
        if total == 0 {
            return None;
        }
        let children: u64 = s
            .children
            .iter()
            .filter_map(|c| self.spans.get(c).and_then(|c| c.nanos))
            .sum();
        Some(100.0 * children as f64 / total as f64)
    }

    /// Root ids with a given span name, in start order.
    pub fn roots_named(&self, name: &str) -> Vec<u64> {
        self.roots
            .iter()
            .copied()
            .filter(|id| self.spans.get(id).is_some_and(|s| s.name == name))
            .collect()
    }

    /// The heaviest-child chain from `id` down: the trace's critical
    /// path through the span tree, as span ids (starting with `id`).
    pub fn critical_path(&self, id: u64) -> Vec<u64> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(s) = self.spans.get(&cur) {
            let heaviest = s
                .children
                .iter()
                .filter_map(|c| self.spans.get(c))
                .max_by_key(|c| c.nanos.unwrap_or(0));
            match heaviest {
                Some(c) => {
                    path.push(c.id);
                    cur = c.id;
                }
                None => break,
            }
        }
        path
    }
}

fn text_owned(map: &BTreeMap<String, Json>) -> Option<String> {
    text(map, "ev").map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"seq":0,"ev":"span_start","span":1,"parent":null,"name":"request"}
{"seq":1,"ev":"span_start","span":2,"parent":1,"name":"queue"}
{"seq":2,"ev":"span_end","span":2,"nanos":40}
{"seq":3,"ev":"span_start","span":3,"parent":1,"name":"handle"}
{"seq":4,"ev":"pass_end","pass":"rank","nanos":30,"span":3}
{"seq":5,"ev":"cache_query","key":9,"hit":true,"span":3}
{"seq":6,"ev":"span_end","span":3,"nanos":55}
{"seq":7,"ev":"req_done","status":200,"nanos":100,"span":1}
{"seq":8,"ev":"span_end","span":1,"nanos":100}
"#;

    #[test]
    fn rebuilds_the_forest() {
        let t = Trace::parse(SAMPLE);
        assert!(t.bad_lines.is_empty());
        assert!(t.orphans.is_empty());
        assert!(t.unclosed.is_empty());
        assert_eq!(t.roots, vec![1]);
        let root = &t.spans[&1];
        assert_eq!(root.name, "request");
        assert_eq!(root.children, vec![2, 3]);
        assert_eq!(root.nanos, Some(100));
        assert_eq!(root.status, Some(200));
        let handle = &t.spans[&3];
        assert_eq!(handle.passes, vec![("rank".to_string(), 30)]);
        assert_eq!(handle.cache_hits, 1);
        assert_eq!(t.req_done, vec![(1, 200, 100)]);
        // 40 + 55 of 100 → 95% coverage, paths follow the heavy child.
        assert_eq!(t.coverage(1), Some(95.0));
        assert_eq!(t.critical_path(1), vec![1, 3]);
        assert_eq!(t.roots_named("request"), vec![1]);
    }

    #[test]
    fn reports_structural_problems() {
        let t = Trace::parse(
            "{\"ev\":\"span_start\",\"span\":5,\"parent\":99,\"name\":\"x\"}\n\
             {\"ev\":\"span_end\",\"span\":6,\"nanos\":1}\n\
             {\"ev\":\"pass_end\",\"pass\":\"rank\",\"nanos\":1,\"span\":7}\n",
        );
        assert_eq!(t.orphans.len(), 3);
        assert!(matches!(
            t.orphans[0],
            Orphan::UnknownParent {
                span: 5,
                parent: 99
            }
        ));
        assert_eq!(t.orphans[1], Orphan::EndWithoutStart(6));
        assert!(matches!(
            t.orphans[2],
            Orphan::UnknownAttribution { span: 7, .. }
        ));
        assert_eq!(t.unclosed, vec![5]);
    }

    #[test]
    fn reports_duplicate_starts_double_ends_and_self_parents() {
        let dup = Trace::parse(
            "{\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"a\"}\n\
             {\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"b\"}\n",
        );
        assert_eq!(dup.orphans, vec![Orphan::DuplicateStart(1)]);
        assert_eq!(dup.spans[&1].name, "a", "the first start wins");

        let double_end = Trace::parse(
            "{\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"a\"}\n\
             {\"ev\":\"span_end\",\"span\":1,\"nanos\":1}\n\
             {\"ev\":\"span_end\",\"span\":1,\"nanos\":2}\n",
        );
        assert_eq!(double_end.orphans, vec![Orphan::DoubleEnd(1)]);
        assert_eq!(double_end.spans[&1].nanos, Some(1), "the first end wins");
        assert!(double_end.unclosed.is_empty());

        // A span cannot be its own parent: it has not started yet when
        // its parent is looked up.
        let self_parent =
            Trace::parse("{\"ev\":\"span_start\",\"span\":2,\"parent\":2,\"name\":\"x\"}\n");
        assert_eq!(
            self_parent.orphans,
            vec![Orphan::UnknownParent { span: 2, parent: 2 }]
        );
        assert_eq!(self_parent.unclosed, vec![2]);
    }

    #[test]
    fn tolerates_unknown_tags_and_bad_lines() {
        let t = Trace::parse("{\"ev\":\"future_event\",\"x\":1}\nnot json\n{}\n");
        assert_eq!(t.lines, 3);
        assert_eq!(t.bad_lines.len(), 1);
        assert!(t.spans.is_empty());
    }
}
