package repro.jedai

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Metrics, OpTimes, PRF, RoundStat, RunResult}
import repro.data.ERDataset

/** The two JedAI workflow families the paper compares against (§4.3):
  *
  *  - schema-based: a similarity join (Jaccard over the key attribute's
  *    tokens) with the threshold grid-searched against the gold duplicates,
  *    exactly the "best configuration found through grid search using DUPS"
  *    protocol of the paper;
  *  - schema-agnostic: token blocking over all attributes, CBS-weighted
  *    meta-blocking with weighted edge pruning, then Jaccard matching with a
  *    grid-searched threshold.
  */
object JedaiPipelines {

  private val grid: Seq[Double] = BigDecimal(0.10) to BigDecimal(0.90) by BigDecimal(0.05) map (_.toDouble)

  /** Grid search the matching threshold on collected (pair, jaccard) rows. */
  private def bestThreshold(scored: Array[((Int, Int), Double)],
                            gold: Set[(Int, Int)]): (Double, PRF) = {
    var best = (grid.head, PRF(0, 0, gold.size))
    grid.foreach { th =>
      val pred = scored.collect { case (p, j) if j >= th => p }.toSet
      val prf = Metrics.allPairs(pred, gold)
      if (prf.f1 > best._2.f1) best = (th, prf)
    }
    best
  }

  private def collectScored(df: DataFrame): Array[((Int, Int), Double)] =
    df.collect().map(r => ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))),
                           r.getDouble(r.fieldIndex("jac"))))

  /** The key attribute a schema-based workflow would join on. */
  def keyAttr(ds: ERDataset): String =
    if (ds.schema.contains("title")) "title"
    else if (ds.schema.contains("description")) "description"
    else ds.schema.head

  def schemaBased(spark: SparkSession, ds: ERDataset): RunResult =
    pipeline(spark, ds, "JedAI:Schema-based", Seq(keyAttr(ds)), _.filter(col("jac") >= grid.head))

  def schemaAgnostic(spark: SparkSession, ds: ERDataset): RunResult =
    pipeline(spark, ds, "JedAI:Schema-agnostic", ds.schema, MetaBlocking.weightedEdgePruning)

  /** Token blocking over `attrs`, Jaccard scoring of the co-blocked pairs,
    * `keep` over the scored (rid, sid, cbs, jac) table, then the threshold
    * grid search; the whole workflow is timed.
    */
  private def pipeline(spark: SparkSession, ds: ERDataset, method: String, attrs: Seq[String],
                       keep: DataFrame => DataFrame): RunResult = {
    val t0 = System.nanoTime()
    val pairs = TokenBlocking.pairsWithCbs(spark, ds, attrs)
    val scored = collectScored(keep(TokenBlocking.withJaccard(spark, ds, pairs, attrs)))
    val (th, prf) = bestThreshold(scored, ds.dups)
    val sec = (System.nanoTime() - t0) / 1e9
    val predicted = scored.collect { case (p, j) if j >= th => p }.toSet
    val testPRF = Metrics.testEval(ds.testPairs, predicted)
    val recall = Metrics.candRecall(scored.map(_._1), ds.dups)
    RunResult(method, ds.name,
      IndexedSeq(RoundStat(1, 0, recall, testPRF.f1, prf.f1)),
      recall, testPRF, prf, OpTimes(0, 0, 0, 0), sec, 0)
  }
}
