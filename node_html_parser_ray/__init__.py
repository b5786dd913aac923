"""node_html_parser_ray — Ray-Data-native HTML extraction engine.

A from-scratch engine with the query/data-processing capabilities of
Sharcoux/node-html-parser, re-expressed as Ray Data pipelines:
``ray.data.Dataset`` -> ``map_batches`` over zero-copy Arrow batches, actor
pools for stateful stages, partitioned checkpointed output.

Layout:
  kernel/     pure-Python semantic core (parser, DOM, selectors, extraction)
  sources/    corpus generation + readers
  stages/     Ray Data batch kernels and actor-pool stages
  pipelines/  end-to-end pipeline builders + driver query registry
  state/      partition manifest (checkpoint/resume) + lineage
"""

__version__ = "0.1.0"
