//! A tiny interactive shell over PENGUIN: SQL against the base relations
//! and VOQL against view objects.
//!
//! ```text
//! cargo run --example voql_shell
//! # or non-interactively:
//! printf "SHOW OBJECTS\nGET omega WHERE COUNT(STUDENT) < 5\nquit\n" \
//!   | cargo run --example voql_shell
//! ```
//!
//! Commands:
//! - `SQL <statement>` — run a SQL statement against the base tables;
//! - VOQL statements (`GET`, `DELETE`, `SHOW ...`) run as-is;
//! - `help`, `quit`.

use penguin_vo::prelude::*;
use std::io::{self, BufRead, Write};

fn main() -> Result<()> {
    let (schema, db) = university_database();
    let mut penguin = Penguin::with_database(schema, db);
    penguin.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )?;
    let mut responder = paper_dialog_responder();
    penguin.choose_translator("omega", &mut responder)?;

    println!("penguin-vo shell — university database loaded, object `omega` ready.");
    println!("try: GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5");
    println!("     SQL SELECT * FROM DEPARTMENT");
    println!("     SHOW OBJECT omega   |   help   |   quit");

    let stdin = io::stdin();
    let mut line = String::new();
    loop {
        print!("penguin> ");
        io::stdout().flush().ok();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if input.eq_ignore_ascii_case("quit") || input.eq_ignore_ascii_case("exit") {
            break;
        }
        if input.eq_ignore_ascii_case("help") {
            println!("SQL <stmt> | GET/DELETE/SHOW (VOQL) | quit");
            continue;
        }
        let result = if let Some(sql) = input
            .strip_prefix("SQL ")
            .or_else(|| input.strip_prefix("sql "))
        {
            match penguin.sql(sql) {
                Ok(SqlOutcome::Rows(rows)) => {
                    print!("{}", rows.to_table_string());
                    Ok(())
                }
                Ok(SqlOutcome::Count(n)) => {
                    println!("{n} tuple(s) affected");
                    Ok(())
                }
                Ok(SqlOutcome::Plan(p)) => {
                    println!("{p}");
                    Ok(())
                }
                Ok(SqlOutcome::Profile(p)) => {
                    print!("{}", p.render());
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            match run_voql(&mut penguin, input) {
                Ok(VoqlOutcome::Instances(instances)) => {
                    println!("{} instance(s):", instances.len());
                    let object = penguin.object("omega").map(|r| r.object.clone());
                    for inst in &instances {
                        match &object {
                            Ok(o) if o.name() == &*inst.object => {
                                print!(
                                    "{}",
                                    inst.to_display_string(penguin.schema(), o)
                                        .unwrap_or_default()
                                );
                            }
                            _ => println!("  {}", inst.root.tuple),
                        }
                    }
                    Ok(())
                }
                Ok(VoqlOutcome::Deleted(n)) => {
                    println!("{n} instance(s) deleted");
                    Ok(())
                }
                Ok(VoqlOutcome::Updated(n)) => {
                    println!("{n} instance(s) updated");
                    Ok(())
                }
                Ok(VoqlOutcome::Text(t)) => {
                    println!("{t}");
                    Ok(())
                }
                Err(e) => Err(e),
            }
        };
        if let Err(e) = result {
            println!("error: {e}");
        }
    }
    println!("bye.");
    Ok(())
}
