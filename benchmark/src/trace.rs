//! Spans recorded by the harness around the public calls it makes, kept in
//! memory and written as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;

/// One timed interval of one frame. Times are nanoseconds since the
/// process started; `parent` is empty for a frame's root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub frame: u64,
    pub span: &'static str,
    pub parent: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    span.duration_ns() - total
}

/// Writes spans as JSON lines, creating the parent directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"frame\": {}, \"span\": \"{}\", \"parent\": \"{}\", \"layer\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.frame, s.span, s.parent, s.layer, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { frame: 0, span: name, parent, layer: "test", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span("frame", "", 100, 200);
        let children = [
            span("a", "frame", 110, 130),
            span("b", "frame", 120, 150), // overlaps a by 10
            span("c", "frame", 190, 260), // sticks out past the parent
        ];
        // Covered: [110,150) = 40 and [190,200) = 10.
        assert_eq!(self_time_ns(&root, &children), 50);
        assert_eq!(self_time_ns(&root, &[]), 100);
        assert_eq!(self_time_ns(&root, &[span("all", "frame", 0, 500)]), 0);
    }

    #[test]
    fn contiguous_children_leave_no_self_time() {
        let root = span("frame", "", 0, 90);
        let children =
            [span("a", "frame", 0, 30), span("b", "frame", 30, 60), span("c", "frame", 60, 90)];
        assert_eq!(self_time_ns(&root, &children), 0);
        let sum: u64 = children.iter().map(Span::duration_ns).sum();
        assert_eq!(sum, root.duration_ns());
    }
}
