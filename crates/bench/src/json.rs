//! The one JSON value type and writer behind every `BENCH_*.json`.
//!
//! A record is an [`Object`] built key by key (insertion order is file
//! order), stamped with [`Object::provenance`] and written by
//! [`write_record`]. Nothing here reads JSON.

use dvbs2::decoder::{detected_cpu_features, SimdTier};
use std::fmt::Write as _;

/// The change whose code the committed records were taken with. Bump it in
/// the change that re-records them.
pub const RECORDED_BY: &str = "the core's message RAM runs on the narrowest word";

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written exactly.
    Int(i128),
    /// A float written with a fixed number of decimals.
    Num(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

/// An object under construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Json)>);

impl Object {
    /// The empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends `key: value`.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// Appends what every record carries: `recorded_by` and the recording
    /// host's `cpu` (core count, dispatch tier, detected features).
    pub fn provenance(self) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let cpu = Object::new()
            .with("cores", cores)
            .with("single_vcpu", cores == 1)
            .with("dispatch_tier", SimdTier::resolve(None).name())
            .with("features", Json::array(detected_cpu_features()));
        self.with("recorded_by", RECORDED_BY).with("cpu", cpu)
    }
}

impl Json {
    /// A float written with `decimals` digits after the point.
    pub fn num(value: f64, decimals: usize) -> Json {
        Json::Num(value, decimals)
    }

    /// An array of anything convertible.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Serializes the value: containers of scalars on one line, anything
    /// deeper one child per line. Refuses non-finite floats, naming the
    /// path to the first one.
    pub fn render(&self) -> Result<String, NonFinite> {
        let mut out = String::new();
        self.write(&mut out, 0, &mut String::from("$"))?;
        out.push('\n');
        Ok(out)
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, depth: usize, path: &mut String) -> Result<(), NonFinite> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("writing to a String"),
            Json::Int(n) => write!(out, "{n}").expect("writing to a String"),
            Json::Num(x, decimals) => {
                if !x.is_finite() {
                    return Err(NonFinite { path: path.clone(), value: *x });
                }
                write!(out, "{x:.decimals$}").expect("writing to a String");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                let children = items.iter().map(|item| (None, item)).collect();
                write_container(out, depth, path, ('[', ']'), children)?;
            }
            Json::Obj(entries) => {
                let children = entries.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                write_container(out, depth, path, ('{', '}'), children)?;
            }
        }
        Ok(())
    }
}

/// Writes `open child, child close`: inline when every child is a scalar,
/// one child per line otherwise. An object's children carry their key.
fn write_container(
    out: &mut String,
    depth: usize,
    path: &mut String,
    (open, close): (char, char),
    children: Vec<(Option<&str>, &Json)>,
) -> Result<(), NonFinite> {
    let inline = children.iter().all(|(_, child)| child.is_scalar());
    let new_line = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, child)) in children.iter().enumerate() {
        if i > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            new_line(out, depth + 1);
        }
        let parent_len = path.len();
        match key {
            Some(key) => {
                write_escaped(out, key);
                out.push_str(": ");
                write!(path, ".{key}").expect("writing to a String");
            }
            None => write!(path, "[{i}]").expect("writing to a String"),
        }
        child.write(out, depth + 1, path)?;
        path.truncate(parent_len);
    }
    if !inline && !children.is_empty() {
        new_line(out, depth);
    }
    out.push(close);
    Ok(())
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A NaN or infinite float reached the writer.
#[derive(Debug, Clone, PartialEq)]
pub struct NonFinite {
    /// Where in the value it sits, e.g. `$.rows[3].err_pct`.
    pub path: String,
    /// The offending float.
    pub value: f64,
}

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON has no {} (at {})", self.value, self.path)
    }
}

impl std::error::Error for NonFinite {}

impl From<Object> for Json {
    fn from(object: Object) -> Json {
        Json::Obj(object.0)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, u128);

/// Writes `record` to `file_name` at the repository root and says so.
pub fn write_record(file_name: &str, record: Object) -> Result<(), Box<dyn std::error::Error>> {
    let path = format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, Json::from(record).render()?)?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let value = Json::from("a \"quoted\" \\ path\nnext\ttab \u{1} é");
        assert_eq!(
            value.render().unwrap(),
            "\"a \\\"quoted\\\" \\\\ path\\nnext\\ttab \\u0001 é\"\n"
        );
        let keyed = Object::new().with("k\"ey", 1u32);
        assert_eq!(Json::from(keyed).render().unwrap(), "{\"k\\\"ey\": 1}\n");
    }

    #[test]
    fn nesting_and_key_order_follow_insertion() {
        let record = Object::new()
            .with("zeta", 1u32)
            .with("alpha", Object::new().with("b", true).with("a", Json::Null))
            .with(
                "rows",
                Json::array([
                    Object::new().with("x", Json::Num(1.0, 3)).with("tags", Json::array(["p"])),
                    Object::new().with("x", Json::Num(2.5, 1)),
                ]),
            )
            .with("empty", Json::array::<Json>([]));
        let expected = "{\n  \"zeta\": 1,\n  \"alpha\": {\"b\": true, \"a\": null},\n  \
                        \"rows\": [\n    {\n      \"x\": 1.000,\n      \"tags\": [\"p\"]\n    },\n    \
                        {\"x\": 2.5}\n  ],\n  \"empty\": []\n}\n";
        assert_eq!(Json::from(record).render().unwrap(), expected);
    }

    #[test]
    fn non_finite_floats_are_refused_with_their_path() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let record = Object::new().with(
                "rows",
                Json::array([Object::new()
                    .with("ok", Json::Num(1.0, 1))
                    .with("bad", Json::Num(bad, 2))]),
            );
            let err = Json::from(record).render().unwrap_err();
            assert_eq!(err.path, "$.rows[0].bad");
            assert!(err.to_string().contains("$.rows[0].bad"), "{err}");
        }
    }

    #[test]
    fn provenance_carries_the_recorder_and_the_core_count() {
        let Json::Obj(entries) = Json::from(Object::new().with("benchmark", "x").provenance())
        else {
            unreachable!("an Object converts to Json::Obj")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["benchmark", "recorded_by", "cpu"]);
        assert_eq!(entries[1].1, Json::from(RECORDED_BY));
        let Json::Obj(cpu) = &entries[2].1 else { panic!("cpu is an object") };
        assert!(matches!(cpu[0], (ref k, Json::Int(n)) if k == "cores" && n >= 1));
    }
}
