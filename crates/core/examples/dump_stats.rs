//! Dev tool: dump every SimStats field for the full sweep (baseline + 3
//! models per workload) so hot-path rewrites can be checked bit-identical.

use hyperpred::{run_matrix_configured, Experiment, MatrixConfig, Model, Pipeline};
use hyperpred_workloads::Scale;

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("full") => Scale::Full,
        _ => Scale::Test,
    };
    let workloads = hyperpred_workloads::all(scale);
    let exps = [
        Experiment::fig8(),
        Experiment::fig9(),
        Experiment::fig10(),
        Experiment::fig11(),
    ];
    let out = run_matrix_configured(
        &exps,
        &workloads,
        &Pipeline::default(),
        &MatrixConfig::default(),
    )
    .into_output()
    .expect("matrix");
    for (e, fig) in out.figures.iter().enumerate() {
        for r in fig {
            println!("{} exp{} base {:?}", r.name, e, r.base);
            for (i, m) in Model::ALL.iter().enumerate() {
                println!("{} exp{} {} {:?}", r.name, e, m, r.models[i]);
            }
        }
    }
}
