//! `tm-analyze` — lint a catalog file.
//!
//! ```text
//! tm-analyze FILE [FILE ...]
//! ```
//!
//! For each file (see [`tm_analyze::catfile`] for the format): parse
//! the schema and rules, validate every rule (condition analysis,
//! action typechecking, translation), run the full catalog analysis and
//! print the report.
//!
//! Exit status: `2` if any file fails to parse or a rule is rejected,
//! else `1` if any error-severity diagnostic was reported, else `0`.

use std::process::ExitCode;

use tm_analyze::{check_program, parse_catalog_file, CatalogAnalysis};
use tm_calculus::analyze;
use tm_rules::RuleAction;
use tm_translate::{condition_shape, trans_r};

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: tm-analyze FILE [FILE ...]");
        return ExitCode::from(2);
    }
    let mut status = 0u8;
    for (i, path) in files.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if files.len() > 1 {
            println!("== {path} ==");
        }
        status = status.max(lint_file(path));
    }
    ExitCode::from(status)
}

fn lint_file(path: &str) -> u8 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return 2;
        }
    };
    let cat = match parse_catalog_file(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };
    let mut analysis = CatalogAnalysis::new(cat.schema.clone());
    let mut rejected = false;
    for rule in &cat.rules {
        let info = match analyze(rule.condition(), &cat.schema) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("{path}: rule `{}`: bad condition: {e}", rule.name);
                rejected = true;
                continue;
            }
        };
        if let RuleAction::Compensate(program) = rule.action() {
            if let Err(e) = check_program(program, &cat.schema) {
                eprintln!("{path}: rule `{}`: bad action: {e}", rule.name);
                rejected = true;
                continue;
            }
        }
        if let Err(e) = trans_r(rule, &cat.schema) {
            eprintln!("{path}: rule `{}`: not translatable: {e}", rule.name);
            rejected = true;
            continue;
        }
        analysis.add_rule(rule, condition_shape(&info.formula, &cat.schema));
    }
    let report = analysis.report();
    print!("{report}");
    if rejected {
        2
    } else if report.errors() > 0 {
        1
    } else {
        0
    }
}
