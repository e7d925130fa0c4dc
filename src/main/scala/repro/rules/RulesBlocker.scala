package repro.rules

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.ERDataset
import repro.jedai.TokenBlocking

/** Hand-crafted blocking rules — the `Rules` baseline of the paper.
  *
  * The five public benchmarks ship pre-blocked with human-designed rules; we
  * recreate that role with domain rules over our synthetic schemas:
  *
  *  - structured products: a shared model-number-like token (contains a
  *    digit), OR equal non-empty brand with ≥ 3 shared non-stopword title
  *    tokens;
  *  - textual products (Abt-Buy): ≥ 3 shared rare description tokens;
  *  - citations: ≥ 3 shared title tokens.
  *
  * Implemented as distributed token blocking: explode tokens, join R and S
  * token tables, aggregate overlap counts. There are no rules for the
  * multilingual dataset (as in the paper — that is its point).
  */
object RulesBlocker {

  /** Pairs sharing at least `minOverlap` distinct tokens of `attr`, with the
    * shared count. Columns: rid, sid, cnt. When `maxDfFrac` < 1, tokens
    * appearing in more than that fraction of all records are treated as
    * stopwords and excluded from blocking (standard for long textual
    * attributes, where boilerplate tokens would block everything with
    * everything).
    */
  def overlapPairs(rDf: DataFrame, sDf: DataFrame, attr: String, minOverlap: Int,
                   maxDfFrac: Double = 1.0): DataFrame = {
    var rt = TokenBlocking.tokenTable(rDf, Seq(attr)).withColumnRenamed("id", "rid")
    var st = TokenBlocking.tokenTable(sDf, Seq(attr)).withColumnRenamed("id", "sid")
    if (maxDfFrac < 1.0) {
      val total = rDf.count() + sDf.count()
      val df = rt.select(col("rid").as("id"), col("token"))
        .union(st.select(col("sid").as("id"), col("token")))
        .groupBy("token").agg(count(lit(1)).as("df"))
      val keep = df.filter(col("df") <= lit(maxDfFrac * total)).select("token")
      rt = rt.join(keep, "token")
      st = st.join(keep, "token")
    }
    rt.join(st, "token")
      .groupBy("rid", "sid")
      .agg(count(lit(1)).as("cnt"))
      .filter(col("cnt") >= minOverlap)
  }

  /** Pairs sharing a digit-bearing token (model numbers, years …). */
  def digitTokenPairs(rDf: DataFrame, sDf: DataFrame, attr: String): DataFrame = {
    val digit = (t: DataFrame) => t.filter(col("token").rlike("[0-9]"))
    val rt = digit(TokenBlocking.tokenTable(rDf, Seq(attr))).withColumnRenamed("id", "rid")
    val st = digit(TokenBlocking.tokenTable(sDf, Seq(attr))).withColumnRenamed("id", "sid")
    rt.join(st, "token").select("rid", "sid").distinct()
  }

  /** Pairs with equal non-empty values of `attr` (e.g. brand). */
  def equalityPairs(rDf: DataFrame, sDf: DataFrame, attr: String): DataFrame = {
    val r = rDf.select(col("id").as("rid"), col(attr).as("v")).filter(length(col("v")) > 0)
    val s = sDf.select(col("id").as("sid"), col(attr).as("v")).filter(length(col("v")) > 0)
    r.join(s, "v").select("rid", "sid").distinct()
  }

  /** The rule candidate set as a DataFrame (rid, sid). */
  def candidatesDF(spark: SparkSession, ds: ERDataset): DataFrame = {
    val rDf = ds.rDF(spark)
    val sDf = ds.sDF(spark)
    ds.schema match {
      case sch if sch.contains("brand") => // structured products
        val ov = overlapPairs(rDf, sDf, "title", 3, maxDfFrac = 0.05)
        val byModel = digitTokenPairs(rDf, sDf, "title")
        val byBrand = equalityPairs(rDf, sDf, "brand")
          .join(ov.select("rid", "sid"), Seq("rid", "sid"), "inner")
        byModel.union(byBrand).distinct()
      case sch if sch.contains("description") => // textual products
        // boilerplate-heavy descriptions: block on ≥2 shared *rare* tokens
        overlapPairs(rDf, sDf, "description", 3, maxDfFrac = 0.05).select("rid", "sid")
      case sch if sch.contains("authors") => // citations
        overlapPairs(rDf, sDf, "title", 3, maxDfFrac = 0.05).select("rid", "sid")
      case other =>
        throw new IllegalArgumentException(
          s"no hand-crafted rules for schema $other (dataset ${ds.name})")
    }
  }

  /** Driver-side candidate pairs. */
  def candidates(spark: SparkSession, ds: ERDataset): IndexedSeq[(Int, Int)] =
    candidatesDF(spark, ds).collect().map(r => (r.getInt(0), r.getInt(1))).toIndexedSeq
}
