//! One table type for every experiment report. A column is declared once
//! — its name, how it reads a row, its precision or its check — and a
//! table renders three ways from that one declaration: the fixed-width
//! text on stdout, the rows of a `BENCH_hotpath.json` section, and the
//! markdown of a CI step summary.

use std::fmt::Write as _;

/// One column: its name (the JSON key and the text header) and how it
/// reads a row, which decides how its cell renders.
pub enum Col<R> {
    /// An unsigned count.
    Int(&'static str, fn(&R) -> u64),
    /// A float with a fixed number of decimals.
    Fixed(&'static str, usize, fn(&R) -> f64),
    /// A verdict: the table fails when a row's check is false.
    Check(&'static str, fn(&R) -> bool),
    /// Free text.
    Text(&'static str, fn(&R) -> &str),
    /// A nested `name → count` map: an object in JSON, its size in text.
    Map(&'static str, fn(&R) -> &[(String, u64)]),
}

impl<R> Col<R> {
    fn name(&self) -> &'static str {
        match self {
            Col::Int(name, _)
            | Col::Fixed(name, ..)
            | Col::Check(name, _)
            | Col::Text(name, _)
            | Col::Map(name, _) => name,
        }
    }

    fn json(&self, row: &R) -> Json {
        match self {
            Col::Int(_, get) => Json::Int(get(row)),
            Col::Fixed(_, decimals, get) => Json::Fixed(get(row), *decimals),
            Col::Check(_, get) => Json::Bool(get(row)),
            Col::Text(_, get) => Json::Str(get(row).to_string()),
            Col::Map(_, get) => Json::Obj(
                get(row)
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                    .collect(),
            ),
        }
    }

    fn cell(&self, row: &R) -> String {
        match self {
            Col::Check(_, get) => if get(row) { "PASS" } else { "FAIL" }.to_string(),
            Col::Text(_, get) => get(row).to_string(),
            Col::Map(_, get) => format!("{} entries", get(row).len()),
            Col::Int(..) | Col::Fixed(..) => self.json(row).render(),
        }
    }
}

/// A titled list of columns over rows of type `R`.
pub struct Table<R: 'static> {
    pub title: &'static str,
    pub cols: &'static [Col<R>],
}

impl<R> Table<R> {
    /// A row's cells as the text table and the markdown show them.
    pub fn cells(&self, row: &R) -> Vec<String> {
        self.cols.iter().map(|c| c.cell(row)).collect()
    }

    /// True when every check column holds in every row.
    pub fn holds(&self, rows: &[R]) -> bool {
        rows.iter().all(|r| {
            self.cols.iter().all(|c| match c {
                Col::Check(_, get) => get(r),
                _ => true,
            })
        })
    }

    /// One row as a JSON object, keyed by column name.
    pub fn json_row(&self, row: &R) -> Json {
        Json::Obj(
            self.cols
                .iter()
                .map(|c| (c.name().to_string(), c.json(row)))
                .collect(),
        )
    }

    /// The rows as a JSON list of objects.
    pub fn json(&self, rows: &[R]) -> Json {
        Json::List(rows.iter().map(|r| self.json_row(r)).collect())
    }

    /// The fixed-width text table: a title line, the header, a rule and
    /// one line per row, so runs diff cleanly.
    pub fn text(&self, rows: &[R]) -> String {
        format!("\n=== {} ===\n{}", self.title, self.grid(rows, true))
    }

    /// The table as GitHub-flavoured markdown under a heading.
    pub fn markdown(&self, rows: &[R]) -> String {
        format!("### {}\n\n{}\n", self.title, self.grid(rows, false))
    }

    /// Header, rule and rows between `|`s; with `pad`, every column as
    /// wide as its widest cell.
    fn grid(&self, rows: &[R], pad: bool) -> String {
        let header = self.cols.iter().map(|c| c.name().to_string()).collect();
        let lines: Vec<Vec<String>> = std::iter::once(header)
            .chain(rows.iter().map(|r| self.cells(r)))
            .collect();
        let width = |i: usize| {
            let widest = lines.iter().map(|l| l[i].len()).max().unwrap_or(0);
            if pad {
                widest
            } else {
                1
            }
        };
        let widths: Vec<usize> = (0..self.cols.len()).map(width).collect();
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
            if i == 0 {
                let _ = writeln!(out, "|{}|", rule.join("|"));
            }
        }
        out
    }
}

/// A JSON value, rendered in `BENCH_hotpath.json`'s layout: an object or
/// list that holds a list of objects opens one line per entry; anything
/// else stays on one line.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Int(u64),
    /// A float with a fixed number of decimals.
    Fixed(f64, usize),
    Bool(bool),
    Str(String),
    List(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `&'static str` keys.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value as text, without a trailing newline.
    pub fn render(&self) -> String {
        self.render_at(0)
    }

    fn is_block(&self) -> bool {
        match self {
            Json::List(items) => items.iter().any(|v| matches!(v, Json::Obj(_))),
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.is_block()),
            _ => false,
        }
    }

    /// The value as text when its first line sits `indent` columns in.
    fn render_at(&self, indent: usize) -> String {
        let inner = |v: &Json| v.render_at(indent + 2);
        let ([open, close], items): ([char; 2], Vec<String>) = match self {
            Json::Int(v) => return v.to_string(),
            Json::Fixed(v, decimals) => return format!("{v:.decimals$}"),
            Json::Bool(b) => return b.to_string(),
            Json::Str(s) => return quote(s),
            Json::List(items) => (['[', ']'], items.iter().map(inner).collect()),
            Json::Obj(fields) => (
                ['{', '}'],
                fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), inner(v)))
                    .collect(),
            ),
        };
        if self.is_block() {
            let pad = " ".repeat(indent + 2);
            let items = items.join(&format!(",\n{pad}"));
            format!("{open}\n{pad}{items}\n{:indent$}{close}", "")
        } else {
            format!("{open}{}{close}", items.join(", "))
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One section of `BENCH_hotpath.json` as a harness produced it.
pub struct Section {
    /// The section's top-level keys and values, in file order.
    pub keys: Vec<(&'static str, Json)>,
    /// The stdout report: the section's tables and notes.
    pub text: String,
    /// Markdown for the CI step summary; empty for none.
    pub markdown: String,
    /// Every check of the section held.
    pub holds: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        ms: f64,
        ok: bool,
        classes: Vec<(String, u64)>,
    }

    const T: Table<Row> = Table {
        title: "demo",
        cols: &[
            Col::Text("name", |r| &r.name),
            Col::Fixed("ms", 2, |r| r.ms),
            Col::Int("classes_n", |r| r.classes.len() as u64),
            Col::Map("per_class", |r| &r.classes),
            Col::Check("ok", |r| r.ok),
        ],
    };

    fn rows() -> Vec<Row> {
        vec![
            Row {
                name: "a \"quoted\"\\name".into(),
                ms: 1.0 / 3.0,
                ok: true,
                classes: vec![("chord.put".into(), 12), ("kts.granted".into(), 3)],
            },
            Row {
                name: "b".into(),
                ms: 1234.5,
                ok: false,
                classes: vec![],
            },
        ]
    }

    #[test]
    fn a_table_renders_as_json() {
        let section = Json::obj([("demo", T.json(&rows())), ("quick", Json::Bool(true))]);
        let expected = r#"{
  "demo": [
    {"name": "a \"quoted\"\\name", "ms": 0.33, "classes_n": 2, "per_class": {"chord.put": 12, "kts.granted": 3}, "ok": true},
    {"name": "b", "ms": 1234.50, "classes_n": 0, "per_class": {}, "ok": false}
  ],
  "quick": true
}"#;
        assert_eq!(section.render(), expected);
    }

    #[test]
    fn a_table_renders_as_text() {
        let expected = "\n=== demo ===\n\
| name            | ms      | classes_n | per_class | ok   |\n\
|-----------------|---------|-----------|-----------|------|\n\
| a \"quoted\"\\name | 0.33    | 2         | 2 entries | PASS |\n\
| b               | 1234.50 | 0         | 0 entries | FAIL |\n";
        assert_eq!(T.text(&rows()), expected);
    }

    #[test]
    fn a_table_renders_as_markdown() {
        let expected = "### demo\n\n\
| name | ms | classes_n | per_class | ok |\n\
|---|---|---|---|---|\n\
| a \"quoted\"\\name | 0.33 | 2 | 2 entries | PASS |\n\
| b | 1234.50 | 0 | 0 entries | FAIL |\n\n";
        assert_eq!(T.markdown(&rows()), expected);
    }

    #[test]
    fn a_false_check_fails_the_table() {
        let rows = rows();
        assert!(T.holds(&rows[..1]));
        assert!(!T.holds(&rows));
        assert!(T.holds(&[]));
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::Str("a\nb\tc".into()).render(), r#""a\nb\u0009c""#);
    }
}
