package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.ERDataset
import repro.index.{EmbView, ExactIndex, SparkKnn}
import repro.text.HashEmbedding
import repro.util.Par
import scala.collection.mutable

/** One candidate pair surfaced by blocking; `dist` is the smallest squared-L2
  * distance across the committee members that retrieved it.
  */
final case class CandPair(rId: Int, sId: Int, dist: Double)

/** Index-By-Committee retrieval (paper §3.2.1, Algorithm 1 lines 10–24).
  *
  * Each member indexes its view of R's embeddings (FAISS-substitute) and is
  * probed by every record of S through the same view of its cached base
  * embedding; the union of all members' top-k lists, deduplicated by closest
  * distance, is cut to the `candSize` closest pairs to form CAND, in the
  * order (dist, rid, sid).
  *
  * [[probe]] does this on the driver and is what the AL loop calls: the
  * probes are milliseconds of work, which a Spark job would bury under its
  * own set-up. [[retrieveCand]] is the same retrieval as a distributed scan
  * ([[SparkKnn.retrieveMulti]]), kept as the reference it must equal.
  */
object Blocker {

  /** Per-member exact index over R built from driver-side base embeddings. */
  def buildIndexes(rBase: Array[Array[Double]], views: IndexedSeq[EmbView]): IndexedSeq[ExactIndex] = {
    val ids = Array.tabulate(rBase.length)(identity)
    views.map(v => new ExactIndex(ids, rBase.map(v.apply)))
  }

  /** CAND order: distance (NaN last, as Spark sorts it), then rid, then sid. */
  private val candOrder: java.util.Comparator[CandPair] = (a, b) => {
    val c = java.lang.Double.compare(a.dist, b.dist)
    if (c != 0) c
    else if (a.rId != b.rId) Integer.compare(a.rId, b.rId)
    else Integer.compare(a.sId, b.sId)
  }

  /** Retrieve CAND on the driver: every S record (its base embedding is
    * `sBase(sId)`) probes every member's index through that member's view,
    * in parallel over S. A pair (rid, sid) can only come from sid's own
    * probes, so each S record deduplicates its hits by smallest distance on
    * its own. Equal to [[retrieveCand]] element for element.
    */
  def probe(sBase: Array[Array[Double]], views: IndexedSeq[EmbView],
            indexes: IndexedSeq[ExactIndex], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    require(views.length == indexes.length, "view/index count mismatch")
    val slots = new Array[Array[CandPair]](sBase.length)
    Par.foreach(sBase.length) { sId =>
      val best = mutable.HashMap.empty[Int, Double]
      views.indices.foreach { m =>
        indexes(m).search(views(m)(sBase(sId)), k).foreach { case (rId, dist) =>
          if (best.get(rId).forall(java.lang.Double.compare(dist, _) < 0)) best(rId) = dist
        }
      }
      slots(sId) = best.iterator.map { case (rId, dist) => CandPair(rId, sId, dist) }.toArray
    }
    val all = slots.flatten
    java.util.Arrays.sort(all, candOrder)
    all.take(candSize).toIndexedSeq
  }

  /** Retrieve CAND via the fused committee scan on Spark.
    * `sDf` must carry columns `id` + the dataset schema (cached by caller).
    */
  def retrieveCand(spark: SparkSession, ds: ERDataset, sDf: DataFrame,
                   emb: HashEmbedding, views: IndexedSeq[EmbView],
                   indexes: IndexedSeq[ExactIndex], k: Int, candSize: Int): IndexedSeq[CandPair] = {
    val hits = SparkKnn.retrieveMulti(spark, sDf, ds.schema, emb, views, indexes, k)
    val cand = hits
      .groupBy(col("rid"), col("sid"))
      .agg(min(col("dist")).as("dist"))
      .orderBy(col("dist").asc, col("rid").asc, col("sid").asc)
      .limit(candSize)
    cand.collect().map(r => CandPair(r.getInt(0), r.getInt(1), r.getDouble(2))).toIndexedSeq
  }
}
