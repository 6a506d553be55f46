//! The wire-format table in `docs/observability.md` must describe
//! exactly the schema the event table generates: the same tags, the
//! same fields in emission order (optional ones marked `?`, nullable
//! ones `(nullable)`), and the same values for every enumerated field —
//! listed inline (`` `rung` (`paper` \| ...) ``) or in a
//! "`` `pass` is one of `a`, `b`, ... ``" sentence.

use std::collections::{BTreeMap, BTreeSet};

use asched_obs::event::SCHEMA;
use asched_obs::schema::Kind;

const DOC: &str = include_str!("../../../docs/observability.md");

/// Backtick-quoted words in `text`, in order.
fn quoted(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// Split a fields cell at the commas outside parentheses.
fn split_fields(cell: &str) -> Vec<&str> {
    let (mut depth, mut start, mut out) = (0i32, 0, Vec::new());
    for (i, c) in cell.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                out.push(cell[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(cell[start..].trim());
    out
}

type Signatures = BTreeMap<String, Vec<String>>;

/// The documented table: tag → field signatures, plus every
/// enumerated field's documented values.
fn documented() -> (Signatures, Signatures) {
    let (mut rows, mut values) = (Signatures::new(), Signatures::new());
    let table = DOC
        .split_once("| `ev` | fields | emitted by |")
        .expect("the wire-format table is in the docs")
        .1;
    for line in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.split(" | ").collect();
        let tag = quoted(cells[0]).remove(0);
        let mut fields = Vec::new();
        for field in split_fields(cells[1]) {
            let name = quoted(field).remove(0);
            let rest = &field[name.len() + 2..];
            let mut sig = name.clone();
            if rest.starts_with('?') {
                sig.push('?');
            }
            if rest.contains("(nullable)") {
                sig.push_str(" (nullable)");
            }
            let listed = quoted(rest);
            if !listed.is_empty() {
                values.insert(name, listed);
            }
            fields.push(sig);
        }
        rows.insert(tag, fields);
    }
    const ONE_OF: &str = "` is one of";
    for (at, _) in DOC.match_indices(ONE_OF) {
        let field = DOC[..at].rsplit('`').next().unwrap().to_owned();
        let rest = &DOC[at + ONE_OF.len()..];
        values.insert(field, quoted(&rest[..rest.find('.').unwrap()]));
    }
    (rows, values)
}

/// The same two maps, from the generated schema.
fn generated() -> (Signatures, Signatures) {
    let (mut rows, mut values) = (Signatures::new(), Signatures::new());
    for spec in SCHEMA {
        let fields = spec.fields.iter().map(|f| {
            if let Kind::Choice(names) = f.kind {
                let names = names.iter().map(|n| n.to_string()).collect();
                values.insert(f.name.to_owned(), names);
            }
            match f.kind {
                kind if kind.optional() => format!("{}?", f.name),
                Kind::Nullable => format!("{} (nullable)", f.name),
                _ => f.name.to_owned(),
            }
        });
        rows.insert(spec.tag.to_owned(), fields.collect());
    }
    (rows, values)
}

/// Fail with the entries that differ, if any.
fn assert_same(what: &str, docs: &Signatures, schema: &Signatures) {
    let keys: BTreeSet<&String> = docs.keys().chain(schema.keys()).collect();
    let drift: Vec<String> = keys
        .into_iter()
        .filter(|key| docs.get(*key) != schema.get(*key))
        .map(|key| {
            format!(
                "  {key}: docs {:?}, schema {:?}",
                docs.get(key),
                schema.get(key)
            )
        })
        .collect();
    assert!(
        drift.is_empty(),
        "{what} in docs/observability.md drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn docs_table_matches_the_generated_schema() {
    let (doc_rows, doc_values) = documented();
    let (rows, values) = generated();
    assert_same("event rows", &doc_rows, &rows);
    assert_same("enum values", &doc_values, &values);
}
