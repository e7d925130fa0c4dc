package repro.jedai

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Meta-blocking (Papadakis et al.): treat the block collection as a graph
  * whose edges are candidate pairs weighted by co-occurrence, then prune.
  *
  * We implement CBS edge weighting (weight = number of shared blocks, which
  * token blocking already provides) with Weighted Edge Pruning (WEP): keep
  * every edge whose weight exceeds the global mean weight.
  */
object MetaBlocking {

  /** WEP over an edge table with a `cbs` weight column. */
  def weightedEdgePruning(pairs: DataFrame): DataFrame = {
    val mean = pairs.agg(avg(col("cbs"))).head().getDouble(0)
    pairs.filter(col("cbs") > mean)
  }
}
