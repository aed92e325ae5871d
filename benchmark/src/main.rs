//! `tm-benchmark` — see `tm_benchmark::cli` for the commands.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    tm_benchmark::cli::main(&args)
}
