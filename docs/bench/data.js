window.BENCHMARK_DATA = {
  "entries": {
    "Flicker bench trajectory": [
      {
        "benches": [
          {
            "name": "apps/ca/p50_ms",
            "unit": "ms",
            "value": 1174.4051200000001
          },
          {
            "name": "apps/ca/p95_ms",
            "unit": "ms",
            "value": 1174.4051200000001
          },
          {
            "name": "apps/distcomp/p50_ms",
            "unit": "ms",
            "value": 957.8784
          },
          {
            "name": "apps/distcomp/p95_ms",
            "unit": "ms",
            "value": 957.8784
          },
          {
            "name": "apps/rootkit/p50_ms",
            "unit": "ms",
            "value": 1027.064784
          },
          {
            "name": "apps/rootkit/p95_ms",
            "unit": "ms",
            "value": 1027.064784
          },
          {
            "name": "apps/ssh/p50_ms",
            "unit": "ms",
            "value": 2113.929216
          },
          {
            "name": "apps/ssh/p95_ms",
            "unit": "ms",
            "value": 2214.5925119999997
          },
          {
            "name": "apps/storage/p50_ms",
            "unit": "ms",
            "value": 1947.2299400000002
          },
          {
            "name": "apps/storage/p95_ms",
            "unit": "ms",
            "value": 1947.2299400000002
          },
          {
            "name": "sessions",
            "unit": "",
            "value": 250
          }
        ],
        "commit": {
          "id": "2c90dcf",
          "message": "",
          "url": ""
        },
        "date": 0,
        "tool": "customSmallerIsBetter"
      },
      {
        "benches": [
          {
            "name": "farm/done",
            "unit": "",
            "value": 200
          },
          {
            "name": "farm/failed",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/machines",
            "unit": "",
            "value": 8
          },
          {
            "name": "farm/p50_ms",
            "unit": "ms",
            "value": 1341.696993
          },
          {
            "name": "farm/p95_ms",
            "unit": "ms",
            "value": 3322.4910630000004
          },
          {
            "name": "farm/p99_ms",
            "unit": "ms",
            "value": 3895.288985
          },
          {
            "name": "farm/quarantines",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/requests",
            "unit": "",
            "value": 200
          },
          {
            "name": "farm/requeues",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/retries",
            "unit": "",
            "value": 84
          },
          {
            "name": "farm/sessions_per_sec",
            "unit": "",
            "value": 37.540733086752546
          },
          {
            "name": "farm/shed",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/timed_out",
            "unit": "",
            "value": 0
          }
        ],
        "commit": {
          "id": "ac5e647",
          "message": "",
          "url": ""
        },
        "date": 1,
        "tool": "customSmallerIsBetter"
      },
      {
        "benches": [
          {
            "name": "apps/ca/p50_ms",
            "unit": "ms",
            "value": 1174.4051200000001
          },
          {
            "name": "apps/ca/p95_ms",
            "unit": "ms",
            "value": 1174.4051200000001
          },
          {
            "name": "apps/distcomp/p50_ms",
            "unit": "ms",
            "value": 956.301312
          },
          {
            "name": "apps/distcomp/p95_ms",
            "unit": "ms",
            "value": 956.301312
          },
          {
            "name": "apps/rootkit/p50_ms",
            "unit": "ms",
            "value": 1027.064784
          },
          {
            "name": "apps/rootkit/p95_ms",
            "unit": "ms",
            "value": 1027.064784
          },
          {
            "name": "apps/ssh/p50_ms",
            "unit": "ms",
            "value": 2113.929216
          },
          {
            "name": "apps/ssh/p95_ms",
            "unit": "ms",
            "value": 2198.081267
          },
          {
            "name": "apps/storage/p50_ms",
            "unit": "ms",
            "value": 1923.66122
          },
          {
            "name": "apps/storage/p95_ms",
            "unit": "ms",
            "value": 1923.66122
          },
          {
            "name": "sessions",
            "unit": "",
            "value": 250
          },
          {
            "name": "warm/ssh/cold_p50_ms",
            "unit": "ms",
            "value": 2140.6600080000003
          },
          {
            "name": "warm/ssh/speedup",
            "unit": "",
            "value": 1.0014034037165747
          },
          {
            "name": "warm/ssh/warm_p50_ms",
            "unit": "ms",
            "value": 2137.6600080000003
          },
          {
            "name": "warm/storage_refresh/cold_p50_ms",
            "unit": "ms",
            "value": 922.74296
          },
          {
            "name": "warm/storage_refresh/speedup",
            "unit": "",
            "value": 1.014512783431362
          },
          {
            "name": "warm/storage_refresh/warm_p50_ms",
            "unit": "ms",
            "value": 909.54296
          },
          {
            "name": "warm/warm_hits",
            "unit": "",
            "value": 196
          },
          {
            "name": "warm/warm_misses",
            "unit": "",
            "value": 30
          }
        ],
        "commit": {
          "id": "7c1e090",
          "message": "",
          "url": ""
        },
        "date": 2,
        "tool": "customSmallerIsBetter"
      },
      {
        "benches": [
          {
            "name": "farm/done",
            "unit": "",
            "value": 200
          },
          {
            "name": "farm/failed",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/machines",
            "unit": "",
            "value": 8
          },
          {
            "name": "farm/p50_ms",
            "unit": "ms",
            "value": 1328.082905
          },
          {
            "name": "farm/p95_ms",
            "unit": "ms",
            "value": 3342.772148
          },
          {
            "name": "farm/p99_ms",
            "unit": "ms",
            "value": 3871.851545
          },
          {
            "name": "farm/quarantines",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/requests",
            "unit": "",
            "value": 200
          },
          {
            "name": "farm/requeues",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/retries",
            "unit": "",
            "value": 84
          },
          {
            "name": "farm/sessions_per_sec",
            "unit": "",
            "value": 58.95614312324069
          },
          {
            "name": "farm/shed",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm/timed_out",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/categories/cpu_ms",
            "unit": "ms",
            "value": 21020.96585
          },
          {
            "name": "farm_attr/categories/net_ms",
            "unit": "ms",
            "value": 1972.00613
          },
          {
            "name": "farm_attr/categories/queue_wait_ms",
            "unit": "ms",
            "value": 2077.0760290000003
          },
          {
            "name": "farm_attr/categories/retry_backoff_ms",
            "unit": "ms",
            "value": 518.8623180000001
          },
          {
            "name": "farm_attr/categories/skinit_ms",
            "unit": "ms",
            "value": 4923.40024
          },
          {
            "name": "farm_attr/categories/tpm_backoff_ms",
            "unit": "ms",
            "value": 95
          },
          {
            "name": "farm_attr/categories/tpm_ms",
            "unit": "ms",
            "value": 304767.15264
          },
          {
            "name": "farm_attr/categories/warm_saved_oiap_ms",
            "unit": "ms",
            "value": 663
          },
          {
            "name": "farm_attr/categories/warm_saved_seal_ms",
            "unit": "ms",
            "value": 448.79999999999995
          },
          {
            "name": "farm_attr/min_coverage",
            "unit": "",
            "value": 1
          },
          {
            "name": "farm_attr/outliers",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/unattributed_ms",
            "unit": "ms",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/ca/breaches",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/ca/burn",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/ca/worst_ms",
            "unit": "ms",
            "value": 2433.802977
          },
          {
            "name": "farm_attr/workloads/distcomp/breaches",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/distcomp/burn",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/distcomp/worst_ms",
            "unit": "ms",
            "value": 1925.083473
          },
          {
            "name": "farm_attr/workloads/rootkit/breaches",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/rootkit/burn",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/rootkit/worst_ms",
            "unit": "ms",
            "value": 2141.206234
          },
          {
            "name": "farm_attr/workloads/ssh/breaches",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/ssh/burn",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/ssh/worst_ms",
            "unit": "ms",
            "value": 4339.172439
          },
          {
            "name": "farm_attr/workloads/storage/breaches",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/storage/burn",
            "unit": "",
            "value": 0
          },
          {
            "name": "farm_attr/workloads/storage/worst_ms",
            "unit": "ms",
            "value": 3900.670333
          }
        ],
        "commit": {
          "id": "1333357",
          "message": "",
          "url": ""
        },
        "date": 3,
        "tool": "customSmallerIsBetter"
      },
      {
        "benches": [
          {
            "name": "apps/ca/p50_ms",
            "unit": "ms",
            "value": 1153.394
          },
          {
            "name": "apps/ca/p95_ms",
            "unit": "ms",
            "value": 1193.954
          },
          {
            "name": "apps/distcomp/p50_ms",
            "unit": "ms",
            "value": 955.76592
          },
          {
            "name": "apps/distcomp/p95_ms",
            "unit": "ms",
            "value": 955.76592
          },
          {
            "name": "apps/rootkit/p50_ms",
            "unit": "ms",
            "value": 1027.218356
          },
          {
            "name": "apps/rootkit/p95_ms",
            "unit": "ms",
            "value": 1027.610167
          },
          {
            "name": "apps/ssh/p50_ms",
            "unit": "ms",
            "value": 2130.735892
          },
          {
            "name": "apps/ssh/p95_ms",
            "unit": "ms",
            "value": 2186.911954
          },
          {
            "name": "apps/storage/p50_ms",
            "unit": "ms",
            "value": 1923.66122
          },
          {
            "name": "apps/storage/p95_ms",
            "unit": "ms",
            "value": 1923.66122
          },
          {
            "name": "profile/attribution/TPM_Quote",
            "unit": "",
            "value": 0.96
          },
          {
            "name": "profile/attribution/TPM_Seal",
            "unit": "",
            "value": 0.92
          },
          {
            "name": "profile/attribution/TPM_Unseal",
            "unit": "",
            "value": 0.94
          },
          {
            "name": "profile/reconciliation_error",
            "unit": "",
            "value": 0
          },
          {
            "name": "profile/session_total_ms",
            "unit": "ms",
            "value": 130614.24975
          },
          {
            "name": "profile/top_stacks/(untraced);tpm.TPM_Quote;modmul",
            "unit": "",
            "value": 0.2550465347205728
          },
          {
            "name": "profile/top_stacks/session;phase.pal",
            "unit": "",
            "value": 0.05588290530627451
          },
          {
            "name": "profile/top_stacks/session;phase.pal;tpm.TPM_Unseal",
            "unit": "",
            "value": 0.03769890255844711
          },
          {
            "name": "profile/top_stacks/session;phase.pal;tpm.TPM_Unseal;modmul",
            "unit": "",
            "value": 0.5780498392295224
          },
          {
            "name": "profile/top_stacks/session;phase.skinit",
            "unit": "",
            "value": 0.014136999198235137
          },
          {
            "name": "profile/total_ms",
            "unit": "ms",
            "value": 179249.24975
          },
          {
            "name": "sessions",
            "unit": "",
            "value": 250
          }
        ],
        "commit": {
          "id": "f8e3f81",
          "message": "",
          "url": ""
        },
        "date": 4,
        "tool": "customSmallerIsBetter"
      },
      {
        "benches": [
          {
            "name": "apps/ca/p50_ms",
            "unit": "ms",
            "value": 1153.394
          },
          {
            "name": "apps/ca/p95_ms",
            "unit": "ms",
            "value": 1193.954
          },
          {
            "name": "apps/distcomp/p50_ms",
            "unit": "ms",
            "value": 955.76592
          },
          {
            "name": "apps/distcomp/p95_ms",
            "unit": "ms",
            "value": 955.76592
          },
          {
            "name": "apps/rootkit/p50_ms",
            "unit": "ms",
            "value": 1027.218356
          },
          {
            "name": "apps/rootkit/p95_ms",
            "unit": "ms",
            "value": 1027.610167
          },
          {
            "name": "apps/ssh/p50_ms",
            "unit": "ms",
            "value": 2130.735892
          },
          {
            "name": "apps/ssh/p95_ms",
            "unit": "ms",
            "value": 2186.911954
          },
          {
            "name": "apps/storage/p50_ms",
            "unit": "ms",
            "value": 1944.06122
          },
          {
            "name": "apps/storage/p95_ms",
            "unit": "ms",
            "value": 1944.06122
          },
          {
            "name": "profile/attribution/TPM_Quote",
            "unit": "",
            "value": 0.96
          },
          {
            "name": "profile/attribution/TPM_Seal",
            "unit": "",
            "value": 0.92
          },
          {
            "name": "profile/attribution/TPM_Unseal",
            "unit": "",
            "value": 0.94
          },
          {
            "name": "profile/reconciliation_error",
            "unit": "",
            "value": 0
          },
          {
            "name": "profile/session_total_ms",
            "unit": "ms",
            "value": 131103.84975
          },
          {
            "name": "profile/top_stacks/(untraced);tpm.TPM_Quote;modmul",
            "unit": "",
            "value": 0.2543518002011694
          },
          {
            "name": "profile/top_stacks/session;phase.pal",
            "unit": "",
            "value": 0.05573735930731914
          },
          {
            "name": "profile/top_stacks/session;phase.pal;tpm.TPM_Unseal",
            "unit": "",
            "value": 0.0375962125572688
          },
          {
            "name": "profile/top_stacks/session;phase.pal;tpm.TPM_Unseal;modmul",
            "unit": "",
            "value": 0.5764752592114549
          },
          {
            "name": "profile/top_stacks/session;phase.skinit",
            "unit": "",
            "value": 0.014045079867325679
          },
          {
            "name": "profile/total_ms",
            "unit": "ms",
            "value": 179738.84975
          },
          {
            "name": "sessions",
            "unit": "",
            "value": 250
          }
        ],
        "commit": {
          "id": "3fe1446",
          "message": "",
          "url": ""
        },
        "date": 5,
        "tool": "customSmallerIsBetter"
      },
      {
        "benches": [
          {
            "name": "apps/ca/p50_ms",
            "unit": "ms",
            "value": 1153.394
          },
          {
            "name": "apps/ca/p95_ms",
            "unit": "ms",
            "value": 1193.954
          },
          {
            "name": "apps/distcomp/p50_ms",
            "unit": "ms",
            "value": 955.76592
          },
          {
            "name": "apps/distcomp/p95_ms",
            "unit": "ms",
            "value": 955.76592
          },
          {
            "name": "apps/rootkit/p50_ms",
            "unit": "ms",
            "value": 1027.218356
          },
          {
            "name": "apps/rootkit/p95_ms",
            "unit": "ms",
            "value": 1027.610167
          },
          {
            "name": "apps/ssh/p50_ms",
            "unit": "ms",
            "value": 2130.735892
          },
          {
            "name": "apps/ssh/p95_ms",
            "unit": "ms",
            "value": 2186.911954
          },
          {
            "name": "apps/storage/p50_ms",
            "unit": "ms",
            "value": 1944.06122
          },
          {
            "name": "apps/storage/p95_ms",
            "unit": "ms",
            "value": 1944.06122
          },
          {
            "name": "profile/reconciliation_error",
            "unit": "",
            "value": 0
          },
          {
            "name": "profile/session_total_ms",
            "unit": "ms",
            "value": 131103.84975
          },
          {
            "name": "profile/top_stacks/(untraced);tpm.TPM_Quote",
            "unit": "",
            "value": 0.2705870214906057
          },
          {
            "name": "profile/top_stacks/session;phase.pal",
            "unit": "",
            "value": 0.05573735930731914
          },
          {
            "name": "profile/top_stacks/session;phase.pal;tpm.TPM_Seal",
            "unit": "",
            "value": 0.008455601012880077
          },
          {
            "name": "profile/top_stacks/session;phase.pal;tpm.TPM_Unseal",
            "unit": "",
            "value": 0.6266035426211467
          },
          {
            "name": "profile/top_stacks/session;phase.skinit",
            "unit": "",
            "value": 0.014045079867325679
          },
          {
            "name": "profile/total_ms",
            "unit": "ms",
            "value": 179738.84975
          },
          {
            "name": "sessions",
            "unit": "",
            "value": 250
          }
        ],
        "commit": {
          "id": "92126f6",
          "message": "",
          "url": ""
        },
        "date": 6,
        "tool": "customSmallerIsBetter"
      }
    ]
  },
  "lastUpdate": 7,
  "repoUrl": ""
}
;
