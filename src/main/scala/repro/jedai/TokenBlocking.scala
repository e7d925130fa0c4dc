package repro.jedai

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.ERDataset
import repro.text.Tokenizer

/** Token Blocking (Papadakis et al.): every distinct token of every attribute
  * value is a blocking key; records sharing a token co-occur in a block.
  * The pair table carries the number of shared blocks — the CBS
  * (common-blocks) weight consumed by meta-blocking.
  */
object TokenBlocking {

  private val tokenizeUdf = udf((s: String) => Tokenizer.tokens(Option(s).getOrElse("")))

  /** (id, token) over the given attributes, distinct per record; a
    * row-local projection, so the table keeps the row order of `df`.
    */
  def tokenTable(df: DataFrame, attrs: Seq[String]): DataFrame = {
    val toks = attrs.map(a => tokenizeUdf(col(a)))
    df.select(col("id"), explode(array_distinct(flatten(array(toks: _*)))).as("token"))
  }

  /** Candidate pairs with CBS weight: (rid, sid, cbs). */
  def pairsWithCbs(spark: SparkSession, ds: ERDataset, attrs: Seq[String]): DataFrame = {
    val rt = tokenTable(ds.rDF(spark), attrs).withColumnRenamed("id", "rid")
    val st = tokenTable(ds.sDF(spark), attrs).withColumnRenamed("id", "sid")
    rt.join(st, "token")
      .groupBy("rid", "sid")
      .agg(count(lit(1)).as("cbs"))
  }

  /** Record-level distinct token counts: (id, ntok). */
  def tokenCounts(df: DataFrame, attrs: Seq[String]): DataFrame =
    tokenTable(df, attrs).groupBy("id").agg(count(lit(1)).as("ntok"))

  /** Jaccard similarity of full-record token sets for each candidate pair:
    * (rid, sid, cbs, jac). `pairs` must carry (rid, sid, cbs) where cbs is
    * the shared-token count over the same attribute set.
    */
  def withJaccard(spark: SparkSession, ds: ERDataset, pairs: DataFrame,
                  attrs: Seq[String]): DataFrame = {
    val rc = tokenCounts(ds.rDF(spark), attrs).withColumnRenamed("id", "rid")
      .withColumnRenamed("ntok", "rn")
    val sc = tokenCounts(ds.sDF(spark), attrs).withColumnRenamed("id", "sid")
      .withColumnRenamed("ntok", "sn")
    pairs.join(rc, "rid").join(sc, "sid")
      .withColumn("jac", col("cbs") / (col("rn") + col("sn") - col("cbs")))
      .select("rid", "sid", "cbs", "jac")
  }
}
