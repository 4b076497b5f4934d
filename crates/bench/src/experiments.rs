//! The experiment registry behind the `repro` binary.
//!
//! Each experiment of DESIGN.md §4 is one function returning typed
//! [`Table`]s; [`EXPERIMENTS`] lists them as data, together with the rows
//! the paper states ([`Expect`]), which `repro check` compares against what
//! the tree computes. EXPERIMENTS.md records the output against the paper.

mod channel;
mod hardware;

use crate::args::{Flag, Parsed, Takes};
use crate::table::{Against, Expect, Table, Tolerance};
use dvbs2::ldpc::CodeRate;

/// What an experiment returns.
pub type Tables = Result<Vec<Table>, Box<dyn std::error::Error>>;

/// One entry of the registry.
pub struct Experiment {
    /// The name `repro` takes.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub about: &'static str,
    /// The arguments it accepts after its name.
    pub flags: &'static [Flag],
    /// Runs it.
    pub run: fn(&Parsed) -> Tables,
    /// Set on a deterministic experiment — every cell a pure function of
    /// the code construction and the hardware models, some of them stated
    /// by the paper: what `repro check` holds it to.
    pub gate: Option<Gate>,
}

/// What `repro check` evaluates for one experiment.
pub struct Gate {
    /// Produces the tables `expects` reads: the default run, minus anything
    /// slow that no expectation reads.
    pub tables: fn() -> Tables,
    /// The rows the paper states.
    pub expects: &'static [Expect],
}

const NORMAL: Flag =
    Flag::switch("--normal", "N = 64800 frames instead of the fast short-frame default");
const FRAMES: Flag = Flag::taking("--frames", Takes::Positive("N"), "frames per simulated point");

const fn paper(
    table: usize,
    tolerance: Tolerance,
    rows: &'static [&'static str],
    columns: &'static [(&'static str, &'static [f64])],
) -> Expect {
    Expect { table, against: Against::Paper(rows, columns), tolerance }
}

const fn equal(table: usize, column: &'static str, other: &'static str) -> Expect {
    Expect { table, against: Against::Column(column, other), tolerance: Tolerance::Exact }
}

// The reference values, transcribed from EXPERIMENTS.md (not re-read from
// `CodeParams`): a table's row keys, then one checked column per line with
// its values in row-key order.

const RATES: &[&str] =
    &["1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "5/6", "8/9", "9/10"];

/// EXPERIMENTS.md §T1.
#[rustfmt::skip]
const TABLE1: &[(&str, &[f64])] = &[
    ("f_j", &[5400.0, 7200.0, 8640.0, 12960.0, 12960.0, 4320.0, 5400.0, 6480.0, 5400.0, 7200.0, 6480.0]),
    ("j",   &[12.0, 12.0, 12.0, 8.0, 12.0, 13.0, 12.0, 11.0, 13.0, 4.0, 4.0]),
    ("f_3", &[10800.0, 14400.0, 17280.0, 19440.0, 25920.0, 38880.0, 43200.0, 45360.0, 48600.0, 50400.0, 51840.0]),
    ("k",   &[4.0, 5.0, 6.0, 7.0, 11.0, 10.0, 14.0, 18.0, 22.0, 27.0, 30.0]),
    ("N-K", &[48600.0, 43200.0, 38880.0, 32400.0, 25920.0, 21600.0, 16200.0, 12960.0, 10800.0, 7200.0, 6480.0]),
    ("K",   &[16200.0, 21600.0, 25920.0, 32400.0, 38880.0, 43200.0, 48600.0, 51840.0, 54000.0, 57600.0, 58320.0]),
];

/// EXPERIMENTS.md §T2; `Addr` is the connectivity ROM's entry count.
#[rustfmt::skip]
const TABLE2: &[(&str, &[f64])] = &[
    ("q",    &[135.0, 120.0, 108.0, 90.0, 72.0, 60.0, 45.0, 36.0, 30.0, 20.0, 18.0]),
    ("E_PN", &[97199.0, 86399.0, 77759.0, 64799.0, 51839.0, 43199.0, 32399.0, 25919.0, 21599.0, 14399.0, 12959.0]),
    ("E_IN", &[97200.0, 129600.0, 155520.0, 162000.0, 233280.0, 172800.0, 194400.0, 207360.0, 216000.0, 180000.0, 181440.0]),
    ("Addr", &[270.0, 360.0, 432.0, 450.0, 648.0, 480.0, 540.0, 576.0, 600.0, 500.0, 504.0]),
];

/// The paper's Table 3 in mm² (the channel-RAM row is inferred as the
/// remainder of the published 22.74 mm² total; the other rows are printed
/// in the paper). EXPERIMENTS.md §T3 puts the model's total within 0.2 % and
/// every row within ~12 %.
pub const TABLE3_ROWS: &[&str] = &[
    "Channel LLR RAMs",
    "Message RAMs",
    "Address/Shuffling ROM",
    "Functional units (logic)",
    "Control logic",
    "Shuffling network",
    "Total",
];
pub const TABLE3_MM2: &[f64] = &[2.00, 9.12, 0.075, 10.8, 0.2, 0.55, 22.74];

/// Every experiment, in DESIGN.md §4's order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "Table 1: Tanner-graph parameters per code rate",
        flags: &[],
        run: hardware::table1,
        gate: Some(Gate {
            tables: || hardware::table1(&Parsed::default()),
            expects: &[paper(0, Tolerance::Exact, RATES, TABLE1)],
        }),
    },
    Experiment {
        name: "table2",
        about: "Table 2 (q, E_PN, E_IN, Addr) and the Figure 3 mapping",
        flags: &[],
        run: hardware::table2,
        gate: Some(Gate {
            tables: || hardware::table2(&Parsed::default()),
            expects: &[
                paper(0, Tolerance::Exact, RATES, TABLE2),
                paper(
                    1,
                    Tolerance::Exact,
                    &["functional units", "check nodes per unit (q)"],
                    &[("value", &[360.0, 90.0])],
                ),
            ],
        }),
    },
    Experiment {
        name: "table3_area",
        about: "Table 3: 0.13 um area breakdown, and the multi-core fabric's area",
        flags: &[],
        run: hardware::table3_area,
        gate: Some(Gate {
            tables: || hardware::table3_area(&Parsed::default()),
            expects: &[
                paper(0, Tolerance::Relative(0.002), &["Total"], &[("model [mm2]", &[22.74])]),
                paper(0, Tolerance::Relative(0.12), TABLE3_ROWS, &[("model [mm2]", TABLE3_MM2)]),
            ],
        }),
    },
    Experiment {
        name: "fig2_schedules",
        about: "Figure 2: zigzag vs flooding schedule, 30 iterations instead of 40",
        flags: &[NORMAL],
        run: channel::fig2_schedules,
        gate: None,
    },
    Experiment {
        name: "throughput_eq8",
        about: "Eq. 8: 255 Mbit/s at 270 MHz, analytic vs the cycle-accurate core (Figure 4)",
        flags: &[Flag::switch(
            "--fast",
            "skip the cycle-accurate measurement and print only Eq. 8",
        )],
        run: hardware::throughput_eq8,
        gate: Some(Gate {
            tables: || hardware::throughput_eq8(&Parsed::default()),
            // EXPERIMENTS.md §E8.
            expects: &[
                paper(0, Tolerance::Relative(0.01), &["1/2"], &[("Eq8 [Mbit/s]", &[255.0])]),
                paper(
                    0,
                    Tolerance::Exact,
                    &["1/4", "1/2", "3/5", "2/3", "9/10"],
                    &[("Eq8 cycles", &[23280.0, 34080.0, 45960.0, 35880.0, 37320.0])],
                ),
                equal(0, "calibrated", "HW cycles"),
                equal(1, "makespan", "serial cycles"),
            ],
        }),
    },
    Experiment {
        name: "quantization",
        about: "Section 2.1: 6-bit messages lose about 0.1 dB, 5-bit more",
        flags: &[FRAMES],
        run: channel::quantization,
        gate: None,
    },
    Experiment {
        name: "buffer_anneal",
        about: "Figure 5: conflict buffer of the 4-bank RAM, naive vs annealed; bank ablation",
        flags: &[],
        run: hardware::buffer_anneal,
        gate: None,
    },
    Experiment {
        name: "ber_waterfall",
        about: "Section 1: BER waterfalls against the Shannon limit (about 0.7 dB)",
        flags: &[NORMAL, FRAMES],
        run: channel::ber_waterfall,
        gate: None,
    },
    Experiment {
        name: "thresholds",
        about: "analytic BP thresholds (GA and exact DE) vs Shannon",
        flags: &[Flag::switch("--exact-all", "exact density evolution for all 11 rates")],
        run: |args| {
            let all = args.has("--exact-all");
            channel::thresholds(if all { &CodeRate::ALL } else { &channel::DEFAULT_EXACT_DE })
        },
        gate: Some(Gate {
            // The Shannon and GA columns only: density evolution is ~25 s a rate.
            tables: || channel::thresholds(&[]),
            // EXPERIMENTS.md §S′.
            expects: &[paper(
                0,
                Tolerance::Absolute(0.0005),
                &["1/2", "3/5", "3/4"],
                &[("Shannon [dB]", &[0.187, 0.679, 1.626])],
            )],
        }),
    },
    Experiment {
        name: "energy",
        about: "extension: activity-based energy and power per code rate",
        flags: &[],
        run: hardware::energy,
        gate: None,
    },
    Experiment {
        name: "girth",
        about: "ablation: girth-4 avoidance in the address tables",
        flags: &[],
        run: channel::girth,
        gate: None,
    },
    Experiment {
        name: "parallelism",
        about: "ablation: P = 360 against sub- and super-parallel datapaths",
        flags: &[],
        run: hardware::parallelism,
        gate: Some(Gate {
            tables: || hardware::parallelism(&Parsed::default()),
            // The paper's 255 Mbit/s and 22.74 mm² at its P = 360.
            expects: &[
                paper(0, Tolerance::Relative(0.01), &["360"], &[("T [Mbit/s]", &[255.0])]),
                paper(0, Tolerance::Relative(0.002), &["360"], &[("total [mm2]", &[22.74])]),
            ],
        }),
    },
    Experiment {
        name: "dynamic_throughput",
        about: "ablation: effective throughput with syndrome early termination",
        flags: &[],
        run: channel::dynamic_throughput,
        gate: None,
    },
    Experiment {
        name: "fec_gain",
        about: "extension: frame error rate before and after the outer BCH code",
        flags: &[FRAMES],
        run: channel::fec_gain,
        gate: None,
    },
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{compare, Cell, Check};
    use std::collections::BTreeSet;

    /// What `repro check` reports: the checks of `experiment` over `tables`
    /// that do not hold.
    fn drift(gate: &Gate, tables: &[Table]) -> Vec<Check> {
        compare(tables, gate.expects).into_iter().filter(|check| !check.holds()).collect()
    }

    #[test]
    fn registry_names_are_unique_and_match_the_design_index() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");

        let design = include_str!("../../../DESIGN.md");
        let start = design.find("## 4. Per-experiment index").expect("DESIGN.md §4");
        let section = &design[start..];
        let section = &section[..section.find("\n## 5.").expect("DESIGN.md §5")];
        let indexed: BTreeSet<&str> = section
            .split("--bin repro -- ")
            .skip(1)
            .map(|rest| rest.split(|c: char| !(c.is_alphanumeric() || c == '_')).next().unwrap())
            .collect();
        assert_eq!(
            indexed, names,
            "DESIGN.md §4's `--bin repro -- <name>` targets vs the registry"
        );
    }

    #[test]
    fn every_deterministic_experiment_has_a_checked_row() {
        let gated = EXPERIMENTS.iter().filter_map(|e| Some((e.name, e.gate.as_ref()?)));
        let checked: Vec<&str> =
            gated.filter(|(_, gate)| !gate.expects.is_empty()).map(|(name, _)| name).collect();
        assert_eq!(
            checked,
            ["table1", "table2", "table3_area", "throughput_eq8", "thresholds", "parallelism"]
        );
    }

    #[test]
    fn flags_are_a_subset_of_the_retired_binaries() {
        let flags: BTreeSet<&str> =
            EXPERIMENTS.iter().flat_map(|e| e.flags.iter().map(|f| f.name)).collect();
        assert_eq!(flags, BTreeSet::from(["--exact-all", "--fast", "--frames", "--normal"]));
    }

    /// `repro check`'s comparison on planted drift: Table 2 with one `Addr`
    /// off by one fails naming the key, the rows as computed pass.
    #[test]
    fn an_off_by_one_addr_fails_table2_by_name() {
        let table2 = find("table2").unwrap().gate.as_ref().unwrap();
        let mut tables = (table2.tables)().unwrap();
        assert_eq!(drift(table2, &tables), [], "the tree's Table 2 matches the paper's");
        assert_eq!(compare(&tables, table2.expects).len(), 4 * 11 + 2);

        *tables[0].cell_mut("3/5", "Addr").unwrap() = Cell::Int(649);
        let failed = drift(table2, &tables);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].key, "3/5 Addr");
        assert_eq!((failed[0].measured, failed[0].paper, failed[0].tolerance), (649.0, 648.0, 0.0));
    }

    /// The same for Eq. 8, on `--fast` rows (the analytic columns) extended
    /// with stand-in core measurements: R1/2 throughput outside 1 % of 255,
    /// a calibrated count one cycle off the core's.
    #[test]
    fn eq8_drift_fails_by_name() {
        let experiment = find("throughput_eq8").unwrap();
        let eq8 = experiment.gate.as_ref().unwrap();
        let fast = crate::args::parse("t", experiment.flags, ["--fast".to_owned()]).unwrap();
        let mut tables = (experiment.run)(&fast).unwrap();
        for row in &mut tables[0].rows {
            let cycles = row[1].clone();
            (row[3], row[7]) = (cycles.clone(), cycles);
        }
        let mut pin = Table::new("pin", &["fabric", "frames", "makespan", "serial cycles"]);
        pin.row(vec!["P=1".into(), 3usize.into(), 102_510usize.into(), 102_510usize.into()]);
        tables.push(pin);
        assert_eq!(drift(eq8, &tables), [], "Eq. 8 as computed: 256.7 Mbit/s is within 1 % of 255");

        *tables[0].cell_mut("1/2", "Eq8 [Mbit/s]").unwrap() = Cell::num(258.0, 1);
        *tables[0].cell_mut("8/9", "calibrated").unwrap() = Cell::Int(37_081);
        *tables[1].cell_mut("P=1", "makespan").unwrap() = Cell::Int(102_511);
        let keys: Vec<String> = drift(eq8, &tables).into_iter().map(|c| c.key).collect();
        assert_eq!(keys, ["1/2 Eq8 [Mbit/s]", "8/9 calibrated", "P=1 makespan"]);
    }
}
