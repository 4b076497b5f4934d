//! The typed table every experiment returns, its one printer, and the
//! comparison of its cells against the paper's rows.

use std::fmt;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Words, or a number only meaningful as printed (`<floor`, `+0.03`).
    Text(String),
    /// A count.
    Int(u64),
    /// A measurement printed with `decimals` digits and an optional unit
    /// suffix (`%`, `x`).
    Num {
        /// The value.
        value: f64,
        /// Digits after the point.
        decimals: usize,
        /// Printed right after the digits.
        suffix: &'static str,
    },
}

impl Cell {
    /// A float printed with `decimals` digits.
    pub fn num(value: f64, decimals: usize) -> Cell {
        Cell::Num { value, decimals, suffix: "" }
    }

    /// A float printed with `decimals` digits and `suffix`.
    pub fn unit(value: f64, decimals: usize, suffix: &'static str) -> Cell {
        Cell::Num { value, decimals, suffix }
    }

    /// The cell for "no value here".
    pub fn none() -> Cell {
        Cell::Text("-".to_owned())
    }

    /// The numeric value, if the cell has one.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Text(_) => None,
            Cell::Int(n) => Some(n as f64),
            Cell::Num { value, .. } => Some(value),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Num { value, decimals, suffix } => write!(f, "{value:.decimals$}{suffix}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        Cell::Text(text.to_owned())
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell::Text(text)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

/// A titled table with free-text notes under it.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed above the header row.
    pub title: String,
    /// Column names; a name starting with `<` is left-aligned (and printed
    /// without the marker).
    pub columns: Vec<&'static str>,
    /// One `Vec<Cell>` per row, as long as `columns`. The first cell is the
    /// row's key in [`Expect`] lookups.
    pub rows: Vec<Vec<Cell>>,
    /// Printed under the table, one paragraph each.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: &[&'static str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: one cell per column", self.title);
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.trim_start_matches('<') == name)
    }

    /// The cell of the row keyed `row_key` under `column`: how the tests
    /// plant drift.
    #[cfg(test)]
    pub(crate) fn cell_mut(&mut self, row_key: &str, column: &str) -> Option<&mut Cell> {
        let column = self.column(column)?;
        self.rows.iter_mut().find(|row| row[0].to_string() == row_key).map(|row| &mut row[column])
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\n", self.title)?;
        let names: Vec<String> =
            self.columns.iter().map(|c| c.trim_start_matches('<').to_owned()).collect();
        let text: Vec<Vec<String>> =
            self.rows.iter().map(|row| row.iter().map(Cell::to_string).collect()).collect();
        let width = |c: usize| {
            text.iter().chain([&names]).map(|line| line[c].chars().count()).max().unwrap_or(0)
        };
        let widths: Vec<usize> = (0..names.len()).map(width).collect();
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(c, cell)| {
                    let pad = " ".repeat(widths[c] - cell.chars().count());
                    if self.columns[c].starts_with('<') {
                        format!("{cell}{pad}")
                    } else {
                        format!("{pad}{cell}")
                    }
                })
                .collect();
            padded.join("  ").trim_end().to_owned()
        };
        if !self.rows.is_empty() {
            writeln!(f, "{}", line(&names))?;
            for row in &text {
                writeln!(f, "{}", line(row))?;
            }
        }
        for note in &self.notes {
            writeln!(f, "\n{note}")?;
        }
        Ok(())
    }
}

/// One compared value: a row the paper states against what the tree
/// computes.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// `<row key> <column>`, e.g. `1/2 Addr`.
    pub key: String,
    /// What the experiment produced (NaN when the cell is missing).
    pub measured: f64,
    /// The reference: the paper's value, or for a model-vs-core row the
    /// core's measurement.
    pub paper: f64,
    /// Largest accepted `|measured - paper|`; 0 for an exact row.
    pub tolerance: f64,
}

impl Check {
    /// Whether the measured value is inside the tolerance.
    pub fn holds(&self) -> bool {
        (self.measured - self.paper).abs() <= self.tolerance
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] measured {} vs {} (tolerance {})",
            self.key, self.measured, self.paper, self.tolerance
        )
    }
}

/// What is compared against what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Against {
    /// Values transcribed from the paper (EXPERIMENTS.md): the row keys,
    /// then each checked column's name with its values in row-key order.
    Paper(&'static [&'static str], &'static [(&'static str, &'static [f64])]),
    /// The first column against the second, on every row where the second
    /// is a number.
    Column(&'static str, &'static str),
}

/// How far a cell may sit from its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Not at all.
    Exact,
    /// By this fraction of the reference.
    Relative(f64),
    /// By this much.
    Absolute(f64),
}

/// One set of checked cells of one of an experiment's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expect {
    /// Index into the experiment's tables.
    pub table: usize,
    /// The checked cells and their reference.
    pub against: Against,
    /// The accepted distance.
    pub tolerance: Tolerance,
}

/// Evaluates `expects` over `tables`. A row or column that is not there
/// yields a check with a NaN measurement, which never holds.
pub fn compare(tables: &[Table], expects: &[Expect]) -> Vec<Check> {
    let mut checks = Vec::new();
    for expect in expects {
        let table = &tables[expect.table];
        let value = |row: &[Cell], column: Option<usize>| column.and_then(|c| row[c].value());
        let mut push = |row_key: &str, column: &str, measured: Option<f64>, paper: f64| {
            checks.push(Check {
                key: format!("{row_key} {column}"),
                measured: measured.unwrap_or(f64::NAN),
                paper,
                tolerance: match expect.tolerance {
                    Tolerance::Exact => 0.0,
                    Tolerance::Relative(fraction) => fraction * paper.abs(),
                    Tolerance::Absolute(distance) => distance,
                },
            });
        };
        match expect.against {
            Against::Paper(row_keys, columns) => {
                for &(column, values) in columns {
                    assert_eq!(row_keys.len(), values.len(), "{column}: one value per row key");
                    let index = table.column(column);
                    for (&row_key, &paper) in row_keys.iter().zip(values) {
                        let row = table.rows.iter().find(|row| row[0].to_string() == row_key);
                        push(row_key, column, row.and_then(|row| value(row, index)), paper);
                    }
                }
            }
            Against::Column(column, other) => {
                let (index, other) = (table.column(column), table.column(other));
                for row in &table.rows {
                    if let Some(reference) = value(row, other) {
                        push(&row[0].to_string(), column, value(row, index), reference);
                    }
                }
            }
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut table = Table::new("Sample", &["<name", "count", "share", "<why"]);
        table.row(vec!["a".into(), 5usize.into(), Cell::unit(12.345, 1, "%"), "first".into()]);
        table.row(vec!["long name".into(), 12345usize.into(), Cell::none(), "second one".into()]);
        table.note("A note.");
        table
    }

    #[test]
    fn prints_aligned_columns_and_notes() {
        let expected = "Sample\n\n\
                        name       count  share  why\n\
                        a              5  12.3%  first\n\
                        long name  12345      -  second one\n\
                        \nA note.\n";
        assert_eq!(sample().to_string(), expected);
    }

    #[test]
    fn compare_reads_cells_by_row_key_and_column() {
        let exact = Expect {
            table: 0,
            against: Against::Paper(&["a", "long name"], &[("count", &[5.0, 12345.0])]),
            tolerance: Tolerance::Exact,
        };
        let mut tables = vec![sample()];
        assert!(compare(&tables, &[exact]).iter().all(Check::holds));
        *tables[0].cell_mut("a", "count").unwrap() = Cell::Int(6);
        let failed: Vec<_> =
            compare(&tables, &[exact]).into_iter().filter(|c| !c.holds()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].key, "a count");
        // Inside a relative tolerance the same cell passes.
        let loose = Expect { tolerance: Tolerance::Relative(0.25), ..exact };
        assert!(compare(&tables, &[loose]).iter().all(Check::holds));
    }

    #[test]
    fn a_missing_row_or_column_fails_instead_of_vanishing() {
        for against in [
            Against::Paper(&["absent"], &[("count", &[5.0])]),
            Against::Paper(&["a"], &[("no such column", &[5.0])]),
            Against::Column("no such column", "count"),
        ] {
            let expect = Expect { table: 0, against, tolerance: Tolerance::Relative(1.0) };
            let checks = compare(&[sample()], &[expect]);
            assert!(!checks.is_empty() && !checks.iter().any(Check::holds), "{checks:?}");
        }
    }

    #[test]
    fn column_against_column_skips_rows_without_a_reference() {
        let expect = Expect {
            table: 0,
            against: Against::Column("count", "share"),
            tolerance: Tolerance::Exact,
        };
        let checks = compare(&[sample()], &[expect]);
        assert_eq!(checks.len(), 1, "only row `a` has a numeric share");
        assert_eq!((checks[0].measured, checks[0].paper), (5.0, 12.345));
    }
}
