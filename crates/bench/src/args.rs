//! The one command-line flag parser of the `crates/bench` binaries.
//!
//! A binary declares its flags as data ([`Flag`]); [`parse`] checks the
//! command line against them and generates the usage text, so no binary
//! carries its own `parse_args` / `usage`.

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: the flag is a switch.
    Nothing,
    /// An unsigned number, decimal or `0x`-hex; the string names it in the
    /// usage line.
    Number(&'static str),
    /// A number that must not be zero.
    Positive(&'static str),
    /// Free text.
    Text(&'static str),
}

/// One accepted flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--frames`.
    pub name: &'static str,
    /// Its argument, if any.
    pub takes: Takes,
    /// One line for the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes nothing.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag { name, takes: Takes::Nothing, help }
    }

    /// A flag followed by `takes`.
    pub const fn taking(name: &'static str, takes: Takes, help: &'static str) -> Flag {
        Flag { name, takes, help }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Set,
    Number(u64),
    Text(String),
}

/// The flags found on one command line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parsed(Vec<(&'static str, Value)>);

impl Parsed {
    fn find(&self, name: &str) -> Option<&Value> {
        // The last occurrence wins, as in a hand-written `match` loop.
        self.0.iter().rev().find(|(found, _)| *found == name).map(|(_, value)| value)
    }

    /// Whether the switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// The number given to `name`, if it was given.
    pub fn number(&self, name: &str) -> Option<u64> {
        match self.find(name) {
            Some(Value::Number(n)) => Some(*n),
            _ => None,
        }
    }

    /// The text given to `name`, if it was given.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.find(name) {
            Some(Value::Text(text)) => Some(text),
            _ => None,
        }
    }
}

fn parse_number(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn spelled(flag: &Flag) -> String {
    match flag.takes {
        Takes::Nothing => flag.name.to_owned(),
        Takes::Number(what) | Takes::Positive(what) | Takes::Text(what) => {
            format!("{} {what}", flag.name)
        }
    }
}

/// `flags` as a usage line spells them: ` [--frames N] [--quick]`.
pub fn synopsis(flags: &[Flag]) -> String {
    flags.iter().map(|flag| format!(" [{}]", spelled(flag))).collect()
}

/// The usage text of `program` over `flags`.
pub fn usage(program: &str, flags: &[Flag]) -> String {
    let width = flags.iter().map(|f| spelled(f).len()).max().unwrap_or(0);
    let mut text = format!("usage: {program}{}\n", synopsis(flags));
    for flag in flags {
        text.push_str(&format!("\n  {:<width$}  {}", spelled(flag), flag.help));
    }
    text
}

/// Checks `args` against `flags`. The error is the complaint followed by
/// the usage text.
pub fn parse(
    program: &str,
    flags: &[Flag],
    args: impl IntoIterator<Item = String>,
) -> Result<Parsed, String> {
    let fail = |problem: String| format!("{program}: {problem}\n{}", usage(program, flags));
    let mut parsed = Parsed::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let Some(flag) = flags.iter().find(|flag| flag.name == arg) else {
            return Err(fail(format!("unknown argument {arg}")));
        };
        let value = match flag.takes {
            Takes::Nothing => Value::Set,
            takes => {
                let Some(text) = args.next() else {
                    return Err(fail(format!("{arg} needs a value")));
                };
                match (takes, parse_number(&text)) {
                    (Takes::Text(_), _) => Value::Text(text),
                    (Takes::Positive(_), Some(0)) | (_, None) => {
                        return Err(fail(format!("{arg} cannot be {text}")));
                    }
                    (_, Some(n)) => Value::Number(n),
                }
            }
        };
        parsed.0.push((flag.name, value));
    }
    Ok(parsed)
}

/// [`parse`], or on a bad command line the complaint and the usage text on
/// stderr and exit status 2.
pub fn parse_or_exit(
    program: &str,
    flags: &[Flag],
    args: impl IntoIterator<Item = String>,
) -> Parsed {
    parse(program, flags, args).unwrap_or_else(|complaint| {
        eprintln!("{complaint}");
        std::process::exit(2)
    })
}

/// [`parse_or_exit`] over the process's own arguments.
pub fn parse_env(program: &str, flags: &[Flag]) -> Parsed {
    parse_or_exit(program, flags, std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::taking("--frames", Takes::Positive("N"), "frames per phase"),
        Flag::taking("--seed", Takes::Number("S"), "stream seed"),
        Flag::taking("--repro", Takes::Text("SPEC"), "replay one case"),
        Flag::switch("--quick", "CI budget"),
    ];

    fn run(args: &[&str]) -> Result<Parsed, String> {
        parse("soak", FLAGS, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_declared_flags_in_any_order() {
        let parsed = run(&["--quick", "--seed", "0xD1FF", "--frames", "12", "--repro", "a b"]);
        let parsed = parsed.unwrap();
        assert!(parsed.has("--quick"));
        assert_eq!(parsed.number("--seed"), Some(0xD1FF));
        assert_eq!(parsed.number("--frames"), Some(12));
        assert_eq!(parsed.text("--repro"), Some("a b"));
        let none = run(&[]).unwrap();
        assert!(!none.has("--quick"));
        assert_eq!(none.number("--frames"), None);
        assert_eq!(run(&["--seed", "1", "--seed", "2"]).unwrap().number("--seed"), Some(2));
    }

    #[test]
    fn rejects_what_was_not_declared_with_the_usage_text() {
        for bad in [
            &["--fast"][..],
            &["--frames"],
            &["--frames", "0"],
            &["--frames", "many"],
            &["--seed", "-1"],
            &["7"],
        ] {
            let complaint = run(bad).unwrap_err();
            assert!(complaint.starts_with("soak: "), "{complaint}");
            assert!(
                complaint.contains("usage: soak [--frames N] [--seed S] [--repro SPEC] [--quick]")
            );
            assert!(complaint.contains("\n  --frames N    frames per phase"), "{complaint}");
        }
        assert_eq!(run(&["--seed", "0"]).unwrap().number("--seed"), Some(0));
    }
}
