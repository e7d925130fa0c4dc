package repro.jedai

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.core.RunDigest
import repro.data.ERDataGen
import repro.text.Tokenizer

class JedaiSpec extends SparkSpec {
  private lazy val da = ERDataGen.dblpAcm(scale = 0.08)
  private lazy val wa = ERDataGen.walmartAmazon(scale = 0.08)

  test("tokenTable covers all attributes (schema-agnostic)") {
    val toks = TokenBlocking.tokenTable(da.rDF(spark), da.schema).collect()
      .map(r => (r.getInt(0), r.getString(1))).groupBy(_._1)
    da.r.take(5).foreach { rec =>
      val expected = rec.attrs.flatMap(Tokenizer.tokens).distinct.toSet
      assert(toks(rec.id).map(_._2).toSet == expected)
    }
  }

  test("CBS weights equal shared distinct token counts") {
    val pairs = TokenBlocking.pairsWithCbs(spark, da, da.schema)
      .collect().map(r => ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))),
                           r.getLong(r.fieldIndex("cbs")))).toMap
    da.dups.take(10).foreach { case (rid, sid) =>
      val shared = da.rById(rid).tokenSet.intersect(da.sById(sid).tokenSet).size
      if (shared > 0) assert(pairs((rid, sid)) == shared.toLong, s"($rid,$sid)")
    }
  }

  test("CBS aggregation matches DuckDB (oracle)") {
    def tokRows(recs: Seq[repro.data.Rec]) = recs.flatMap(r =>
      r.tokenSet.toSeq.sorted.map(t => Row(r.id, t)))
    val schema = StructType(Array(StructField("id", IntegerType), StructField("token", StringType)))
    val rt = spark.createDataFrame(spark.sparkContext.parallelize(tokRows(da.r.take(25)), 1), schema)
    val st = spark.createDataFrame(spark.sparkContext.parallelize(tokRows(da.s.take(25)), 1), schema)
    val sparkCbs = rt.withColumnRenamed("id", "rid")
      .join(st.withColumnRenamed("id", "sid"), "token")
      .groupBy("rid", "sid")
      .agg(org.apache.spark.sql.functions.count(org.apache.spark.sql.functions.lit(1)).as("cbs"))
    Oracle.assertEquivalent(sparkCbs,
      """SELECT CAST(rt.id AS INT) AS rid, CAST(st.id AS INT) AS sid, count(*) AS cbs
        |FROM rt JOIN st ON rt.token = st.token GROUP BY rt.id, st.id""".stripMargin,
      "rt" -> rt, "st" -> st)
  }

  test("weighted edge pruning keeps exactly the above-mean edges") {
    val rows = Seq(Row(1, 1, 1L), Row(1, 2, 5L), Row(2, 1, 2L), Row(2, 2, 8L))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 1),
      StructType(Array(StructField("rid", IntegerType), StructField("sid", IntegerType),
                       StructField("cbs", LongType))))
    val kept = MetaBlocking.weightedEdgePruning(df)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(kept == Set((1, 2), (2, 2))) // mean = 4, keep cbs > 4
  }

  test("jaccard computation matches driver brute force") {
    val pairs = TokenBlocking.pairsWithCbs(spark, da, da.schema)
    val withJac = TokenBlocking.withJaccard(spark, da, pairs, da.schema)
      .collect().map(r => ((r.getInt(r.fieldIndex("rid")), r.getInt(r.fieldIndex("sid"))),
                           r.getDouble(r.fieldIndex("jac")))).toMap
    da.dups.take(10).foreach { case (rid, sid) =>
      val expected = Tokenizer.jaccard(da.rById(rid).tokenSet, da.sById(sid).tokenSet)
      if (expected > 0)
        assert(math.abs(withJac((rid, sid)) - expected) < 1e-9, s"($rid,$sid)")
    }
  }

  test("schema-based pipeline finds most DBLP-ACM duplicates") {
    val r = JedaiPipelines.schemaBased(spark, da)
    assert(r.allPRF.f1 > 70.0, s"schema-based F1 ${r.allPRF.f1}")
    assert(r.findAllSec > 0.0)
  }

  test("schema-agnostic pipeline is competitive on citations") {
    val r = JedaiPipelines.schemaAgnostic(spark, da)
    assert(r.allPRF.f1 > 70.0, s"schema-agnostic F1 ${r.allPRF.f1}")
  }

  test("pipelines run on products (lower F1 expected than citations)") {
    val rp = JedaiPipelines.schemaBased(spark, wa)
    val rc = JedaiPipelines.schemaBased(spark, da)
    assert(rp.allPRF.f1 < rc.allPRF.f1, s"products ${rp.allPRF.f1} vs citations ${rc.allPRF.f1}")
  }

  test("both pipelines match their golden digests on citations and products") {
    // recorded before the two pipelines shared one body
    val actual = for (ds <- Seq(da, wa); (name, run) <- Seq(
        "schemaBased" -> JedaiPipelines.schemaBased _, "schemaAgnostic" -> JedaiPipelines.schemaAgnostic _))
      yield s"${ds.name}/$name" -> RunDigest(run(spark, ds))
    assert(actual.toMap == Map(
      "DBLP-ACM/schemaBased" -> "c4d56f7f7a88daba", "DBLP-ACM/schemaAgnostic" -> "e676ccf2eeb13300",
      "Walmart-Amazon/schemaBased" -> "08346a343e86e320", "Walmart-Amazon/schemaAgnostic" -> "f9716abd97b504d8"))
  }

  test("keyAttr picks the textual key") {
    assert(JedaiPipelines.keyAttr(da) == "title")
    assert(JedaiPipelines.keyAttr(ERDataGen.abtBuy(scale = 0.05)) == "description")
  }
}
