//! E9 — MapReduce applications over the pool.
//!
//! WordCount, Grep and Sort with all data movement through the DSHM pool:
//! job completion time per system. The paper's shape: Gengar beats the
//! direct baseline (intermediate shuffle data is write-heavy — the proxy
//! absorbs it; re-read inputs are read-hot — the cache serves them) and
//! tracks the DRAM-only bound.

use gengar_workloads::corpus;
use gengar_workloads::mapreduce::{grep, sort, wordcount};

use crate::exp::{System, SystemKind};
use crate::table::Table;
use crate::{Metrics, RunConfig};

/// Runs E9.
pub fn run(rc: &RunConfig) -> Metrics {
    let words = rc.scale.ops(120_000) as usize;
    let records = rc.scale.ops(200_000) as usize;
    let input = corpus::text(words, 42);
    let sort_input = corpus::records(records, 43);
    let mappers = 4;
    let reducers = 2;

    let mut table = Table::new(
        &format!(
            "E9: MapReduce completion time ({words} words / {records} records, {mappers} mappers)"
        ),
        &["app", "gengar", "nvm-direct", "dram-only"],
    );
    let mut rows: Vec<Vec<String>> = ["wordcount", "grep", "sort"]
        .iter()
        .map(|a| vec![(*a).to_owned()])
        .collect();

    for kind in [
        SystemKind::Gengar,
        SystemKind::NvmDirect,
        SystemKind::DramOnly,
    ] {
        let system = System::launch(kind, 2, rc.base_config(), rc);
        let factory = || Ok(system.client());

        // Best of two runs per app: job times are ms-scale and sensitive
        // to scheduling noise on small hosts.
        let mut wc_best = std::time::Duration::MAX;
        for _ in 0..2 {
            let (wc, wc_t) = wordcount(&factory, &input, mappers, reducers).expect("wordcount");
            assert_eq!(
                wc,
                corpus::reference_word_counts(&input),
                "wordcount diverged on {}",
                system.name()
            );
            wc_best = wc_best.min(wc_t.total());
        }
        rows[0].push(format!("{wc_best:.1?}"));

        let mut grep_best = std::time::Duration::MAX;
        for _ in 0..2 {
            let (_matches, grep_t) =
                grep(&factory, &input, "cache", mappers, reducers).expect("grep");
            grep_best = grep_best.min(grep_t.total());
        }
        rows[1].push(format!("{grep_best:.1?}"));

        let mut sort_best = std::time::Duration::MAX;
        for _ in 0..2 {
            let (sorted, sort_t) = sort(&factory, &sort_input, mappers, reducers).expect("sort");
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sort diverged");
            sort_best = sort_best.min(sort_t.total());
        }
        rows[2].push(format!("{sort_best:.1?}"));
    }
    for row in rows {
        table.row(row);
    }
    table.print();
    Metrics::new()
}
